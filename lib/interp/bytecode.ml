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
