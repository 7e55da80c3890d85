(** Flat bytecode for task and method bodies: the format the closure
    engine ({!Closure}) consumes.

    The compiler ({!Compile}) lowers each `Ir.stmt list` body into one
    [instr array] over three indexed register banks: an unboxed
    [int array] (ints and booleans, booleans as 0/1), an unboxed
    [float array], and a [Value.value array] for objects, strings,
    arrays, tags and RNGs.  Register indices are assigned at compile
    time from the frontend's frame-slot numbering, so execution never
    consults a name or a hash table.

    Cost-model bookkeeping is pre-aggregated per basic block: every
    [Kcost (cycles, steps)] carries the summed constant costs and node
    counts of the instructions of exactly one block, so the executed
    totals are bit-identical to the tree-walking oracle.  Dynamic
    costs (string ops, array allocation, bounds-checked accesses) are
    charged by the executing instruction itself. *)

module Ir = Bamboo_ir.Ir

(** Math builtins dispatched by a single instruction. *)
type math1 =
  | MSin | MCos | MTan | MAtan | MSqrt | MLog | MExp | MFloor | MCeil | MAbs

type math2 = MPow | MMin | MMax

(** Where a call puts its result. *)
type dst = Dint of int | Dbool of int | Dflt of int | Dval of int | Dnone

(** A value read from one of the three banks.  [Sbool] reads the int
    bank but boxes as [Vbool]. *)
type src = Sint of int | Sbool of int | Sflt of int | Sval of int

type instr =
  (* accounting and control flow *)
  | Kcost of int * int      (** block aggregate: (cycles, interpreter steps) *)
  | Kjmp of int
  | Kbrf of int * int       (** branch to [target] when int reg is 0 *)
  | Kbrt of int * int       (** branch to [target] when int reg is non-0 *)
  | Kret_i of int
  | Kret_b of int
  | Kret_f of int
  | Kret_v of int
  | Kret_void
  | Ktaskexit of int        (** raises [Taskexit_exc] *)
  | Kesc_return             (** [return;] in a task body: raises [Return_exc] like the oracle *)
  | Kesc_break              (** break outside a loop: raises [Break_exc] like the oracle *)
  | Kesc_continue
  | Kerror of string        (** raise [Runtime_error] with a fixed message *)
  (* moves and constants *)
  | Kmov_i of int * int
  | Kmov_f of int * int
  | Kmov_v of int * int
  | Kconst_i of int * int
  | Kconst_f of int * float
  | Kconst_s of int * string
  | Kconst_null of int
  (* bank bridges: unboxing raises the oracle's type errors *)
  | Kbox_i of int * int     (** val dst <- Vint ints.(src) *)
  | Kbox_b of int * int     (** val dst <- Vbool of ints.(src) *)
  | Kbox_f of int * int     (** val dst <- Vfloat flts.(src) *)
  | Kunbox_i of int * int   (** int dst <- as_int vals.(src) *)
  | Kunbox_b of int * int   (** int dst <- as_bool vals.(src) *)
  | Kunbox_f of int * int   (** flt dst <- as_float vals.(src) *)
  (* integer/boolean ALU: (dst, a, b) *)
  | Kiadd of int * int * int
  | Kisub of int * int * int
  | Kimul of int * int * int
  | Kidiv of int * int * int
  | Kimod of int * int * int
  | Kiband of int * int * int
  | Kibor of int * int * int
  | Kibxor of int * int * int
  | Kishl of int * int * int
  | Kishr of int * int * int
  | Kineg of int * int
  | Kbnot of int * int
  | Kicmp of Ir.cmp * int * int * int
  (* float ALU *)
  | Kfadd of int * int * int
  | Kfsub of int * int * int
  | Kfmul of int * int * int
  | Kfdiv of int * int * int
  | Kfneg of int * int
  | Kfcmp of Ir.cmp * int * int * int
  (* strings and references *)
  | Kscmp of Ir.cmp * int * int * int   (** dynamic cost *)
  | Ksconcat of int * int * int         (** dynamic cost *)
  | Krcmp of bool * int * int * int     (** [true] = equality, [false] = inequality *)
  (* casts *)
  | Ki2f of int * int
  | Kf2i of int * int
  (* null checks hoisted to preserve the oracle's error order *)
  | Kcheck_obj of int
  | Kcheck_arr of int
  (* heap: field access (obj val reg, field id, int/flt/val reg) *)
  | Kgetf_i of int * int * int
  | Kgetf_b of int * int * int
  | Kgetf_f of int * int * int
  | Kgetf_v of int * int * int
  | Ksetf_i of int * int * int
  | Ksetf_b of int * int * int
  | Ksetf_f of int * int * int
  | Ksetf_v of int * int * int
  (* heap: array access (dst/src, arr val reg, index int reg).
     The [_v] forms dispatch on the runtime representation exactly
     like the oracle, for element types the compiler cannot name. *)
  | Kload_i of int * int * int
  | Kload_b of int * int * int
  | Kload_f of int * int * int
  | Kload_v of int * int * int
  | Kstore_i of int * int * int
  | Kstore_b of int * int * int
  | Kstore_f of int * int * int
  | Kstore_v of int * int * int
  | Klen of int * int
  (* calls and allocation *)
  | Kcall of call
  | Knew of newsite
  | Knewarr of int * Ir.typ * int array  (** dst, element type, dim int regs *)
  | Knewtag of int * Ir.tag_ty_id        (** dst val reg *)
  (* builtins *)
  | Kmath1 of math1 * int * int
  | Kmath2 of math2 * int * int * int
  | Kiabs of int * int
  | Kimin of int * int * int
  | Kimax of int * int * int
  | Kstrlen of int * int
  | Kcharat of int * int * int
  | Ksubstring of int * int * int * int
  | Kstreq of int * int * int
  | Kindexof of int * int * int * int
  | Kstrhash of int * int
  | Kitos of int * int
  | Kdtos of int * int
  | Kparsei of int * int
  | Kparsed of int * int
  | Kprints of int
  | Kprinti of int
  | Kprintd of int
  | Krngnew of int * int
  | Krngint of int * int * int
  | Krngdouble of int * int
  | Krnggauss of int * int

and call = {
  k_dst : dst;
  k_cid : Ir.class_id;
  k_mid : Ir.method_id;
  k_recv : int;             (** val reg holding the receiver *)
  k_args : src array;
}

and newsite = {
  k_nd : int;               (** val reg receiving the new object *)
  k_site : Ir.site_id;
  k_nargs : src array;      (** constructor arguments *)
  k_tags : int array;       (** val regs holding the site's addtag slots *)
}

(** Where a frame slot lives, for rebuilding the oracle-visible
    [tr_frame] after an invocation ([apply_exit] reads tag slots). *)
type slotloc = LInt of int | LBool of int | LFlt of int | LVal of int

type body = {
  b_code : instr array;
  b_nints : int;
  b_nflts : int;
  b_nvals : int;
  b_slots : slotloc array;  (** frame slot -> register *)
}

(** One compiled [Ir.program]: every task body and every method body. *)
type program_code = {
  p_tasks : body array;
  p_methods : body array array;   (** indexed [class_id].(method_id) *)
}

(* ------------------------------------------------------------------ *)
(* Debug rendering (used by compiler tests and [--dump-bytecode]-style
   troubleshooting from the toplevel). *)

let string_of_src = function
  | Sint r -> Printf.sprintf "i%d" r
  | Sbool r -> Printf.sprintf "b%d" r
  | Sflt r -> Printf.sprintf "f%d" r
  | Sval r -> Printf.sprintf "v%d" r

let string_of_dst = function
  | Dint r -> Printf.sprintf "i%d" r
  | Dbool r -> Printf.sprintf "b%d" r
  | Dflt r -> Printf.sprintf "f%d" r
  | Dval r -> Printf.sprintf "v%d" r
  | Dnone -> "_"

let string_of_instr (i : instr) =
  let p = Printf.sprintf in
  match i with
  | Kcost (c, s) -> p "cost %d cycles, %d steps" c s
  | Kjmp t -> p "jmp %d" t
  | Kbrf (r, t) -> p "brf i%d -> %d" r t
  | Kbrt (r, t) -> p "brt i%d -> %d" r t
  | Kret_i r -> p "ret.i i%d" r
  | Kret_b r -> p "ret.b i%d" r
  | Kret_f r -> p "ret.f f%d" r
  | Kret_v r -> p "ret.v v%d" r
  | Kret_void -> "ret.void"
  | Ktaskexit n -> p "taskexit %d" n
  | Kesc_return -> "esc.return"
  | Kesc_break -> "esc.break"
  | Kesc_continue -> "esc.continue"
  | Kerror m -> p "error %S" m
  | Kmov_i (d, a) -> p "mov.i i%d <- i%d" d a
  | Kmov_f (d, a) -> p "mov.f f%d <- f%d" d a
  | Kmov_v (d, a) -> p "mov.v v%d <- v%d" d a
  | Kconst_i (d, n) -> p "const.i i%d <- %d" d n
  | Kconst_f (d, f) -> p "const.f f%d <- %g" d f
  | Kconst_s (d, s) -> p "const.s v%d <- %S" d s
  | Kconst_null d -> p "const.null v%d" d
  | Kbox_i (d, a) -> p "box.i v%d <- i%d" d a
  | Kbox_b (d, a) -> p "box.b v%d <- i%d" d a
  | Kbox_f (d, a) -> p "box.f v%d <- f%d" d a
  | Kunbox_i (d, a) -> p "unbox.i i%d <- v%d" d a
  | Kunbox_b (d, a) -> p "unbox.b i%d <- v%d" d a
  | Kunbox_f (d, a) -> p "unbox.f f%d <- v%d" d a
  | Kiadd (d, a, b) -> p "add.i i%d <- i%d i%d" d a b
  | Kisub (d, a, b) -> p "sub.i i%d <- i%d i%d" d a b
  | Kimul (d, a, b) -> p "mul.i i%d <- i%d i%d" d a b
  | Kidiv (d, a, b) -> p "div.i i%d <- i%d i%d" d a b
  | Kimod (d, a, b) -> p "mod.i i%d <- i%d i%d" d a b
  | Kiband (d, a, b) -> p "and.i i%d <- i%d i%d" d a b
  | Kibor (d, a, b) -> p "or.i i%d <- i%d i%d" d a b
  | Kibxor (d, a, b) -> p "xor.i i%d <- i%d i%d" d a b
  | Kishl (d, a, b) -> p "shl.i i%d <- i%d i%d" d a b
  | Kishr (d, a, b) -> p "shr.i i%d <- i%d i%d" d a b
  | Kineg (d, a) -> p "neg.i i%d <- i%d" d a
  | Kbnot (d, a) -> p "not.b i%d <- i%d" d a
  | Kicmp (_, d, a, b) -> p "cmp.i i%d <- i%d i%d" d a b
  | Kfadd (d, a, b) -> p "add.f f%d <- f%d f%d" d a b
  | Kfsub (d, a, b) -> p "sub.f f%d <- f%d f%d" d a b
  | Kfmul (d, a, b) -> p "mul.f f%d <- f%d f%d" d a b
  | Kfdiv (d, a, b) -> p "div.f f%d <- f%d f%d" d a b
  | Kfneg (d, a) -> p "neg.f f%d <- f%d" d a
  | Kfcmp (_, d, a, b) -> p "cmp.f i%d <- f%d f%d" d a b
  | Kscmp (_, d, a, b) -> p "cmp.s i%d <- v%d v%d" d a b
  | Ksconcat (d, a, b) -> p "concat v%d <- v%d v%d" d a b
  | Krcmp (eq, d, a, b) -> p "cmp.r%s i%d <- v%d v%d" (if eq then "eq" else "ne") d a b
  | Ki2f (d, a) -> p "i2f f%d <- i%d" d a
  | Kf2i (d, a) -> p "f2i i%d <- f%d" d a
  | Kcheck_obj r -> p "check.obj v%d" r
  | Kcheck_arr r -> p "check.arr v%d" r
  | Kgetf_i (d, o, f) -> p "getf.i i%d <- v%d.%d" d o f
  | Kgetf_b (d, o, f) -> p "getf.b i%d <- v%d.%d" d o f
  | Kgetf_f (d, o, f) -> p "getf.f f%d <- v%d.%d" d o f
  | Kgetf_v (d, o, f) -> p "getf.v v%d <- v%d.%d" d o f
  | Ksetf_i (o, f, s) -> p "setf.i v%d.%d <- i%d" o f s
  | Ksetf_b (o, f, s) -> p "setf.b v%d.%d <- i%d" o f s
  | Ksetf_f (o, f, s) -> p "setf.f v%d.%d <- f%d" o f s
  | Ksetf_v (o, f, s) -> p "setf.v v%d.%d <- v%d" o f s
  | Kload_i (d, a, i) -> p "load.i i%d <- v%d[i%d]" d a i
  | Kload_b (d, a, i) -> p "load.b i%d <- v%d[i%d]" d a i
  | Kload_f (d, a, i) -> p "load.f f%d <- v%d[i%d]" d a i
  | Kload_v (d, a, i) -> p "load.v v%d <- v%d[i%d]" d a i
  | Kstore_i (a, i, s) -> p "store.i v%d[i%d] <- i%d" a i s
  | Kstore_b (a, i, s) -> p "store.b v%d[i%d] <- i%d" a i s
  | Kstore_f (a, i, s) -> p "store.f v%d[i%d] <- f%d" a i s
  | Kstore_v (a, i, s) -> p "store.v v%d[i%d] <- v%d" a i s
  | Klen (d, a) -> p "len i%d <- v%d" d a
  | Kcall c ->
      p "call %s <- [%d.%d] v%d (%s)" (string_of_dst c.k_dst) c.k_cid c.k_mid c.k_recv
        (String.concat " " (Array.to_list (Array.map string_of_src c.k_args)))
  | Knew n ->
      p "new v%d <- site%d (%s)" n.k_nd n.k_site
        (String.concat " " (Array.to_list (Array.map string_of_src n.k_nargs)))
  | Knewarr (d, _, dims) ->
      p "newarr v%d dims(%s)" d
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "i%d") dims)))
  | Knewtag (d, ty) -> p "newtag v%d ty%d" d ty
  | Kmath1 (_, d, a) -> p "math1 f%d <- f%d" d a
  | Kmath2 (_, d, a, b) -> p "math2 f%d <- f%d f%d" d a b
  | Kiabs (d, a) -> p "abs.i i%d <- i%d" d a
  | Kimin (d, a, b) -> p "min.i i%d <- i%d i%d" d a b
  | Kimax (d, a, b) -> p "max.i i%d <- i%d i%d" d a b
  | Kstrlen (d, s) -> p "strlen i%d <- v%d" d s
  | Kcharat (d, s, i) -> p "charat i%d <- v%d[i%d]" d s i
  | Ksubstring (d, s, i, j) -> p "substr v%d <- v%d[i%d..i%d]" d s i j
  | Kstreq (d, a, b) -> p "streq i%d <- v%d v%d" d a b
  | Kindexof (d, s, pat, f) -> p "indexof i%d <- v%d v%d i%d" d s pat f
  | Kstrhash (d, s) -> p "strhash i%d <- v%d" d s
  | Kitos (d, a) -> p "itos v%d <- i%d" d a
  | Kdtos (d, a) -> p "dtos v%d <- f%d" d a
  | Kparsei (d, a) -> p "parsei i%d <- v%d" d a
  | Kparsed (d, a) -> p "parsed f%d <- v%d" d a
  | Kprints r -> p "print.s v%d" r
  | Kprinti r -> p "print.i i%d" r
  | Kprintd r -> p "print.d f%d" r
  | Krngnew (d, s) -> p "rng.new v%d <- i%d" d s
  | Krngint (d, r, b) -> p "rng.int i%d <- v%d i%d" d r b
  | Krngdouble (d, r) -> p "rng.double f%d <- v%d" d r
  | Krnggauss (d, r) -> p "rng.gauss f%d <- v%d" d r

let dump_body (b : body) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i ins -> Buffer.add_string buf (Printf.sprintf "%4d  %s\n" i (string_of_instr ins)))
    b.b_code;
  Buffer.contents buf

let _ = dump_body
let _ = string_of_src
