(** Shared execution context for the two interpreter engines.

    Both the tree-walking oracle ({!Interp}) and the closure engine
    ({!Closure}) run over this context: one cycle counter, one fuel
    guard, one id allocator, one output buffer, and one set of
    operation-semantics helpers (RNG, allocation, string scans).
    Keeping every shared primitive here — and charging every cost
    through the tables in {!Cost} — is what makes "bit-identical
    cycles and steps" a structural property instead of a test-enforced
    coincidence. *)

module Ir = Bamboo_ir.Ir
open Value

exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Taskexit_exc of int

(** Optional per-context access monitor, installed by the parallel
    backend's lockset sanitizer: observes every object-field read and
    write (by field index) and every allocation, on whichever engine
    executes the body.  Monitors must not mutate interpreter state —
    they observe only, so cycles/steps stay bit-identical with and
    without one installed. *)
type monitor = {
  mn_read : obj -> int -> unit;
  mn_write : obj -> int -> unit;
  mn_alloc : obj -> unit;
}

type ctx = {
  prog : Ir.program;
  mutable cycles : int;              (* monotone cycle counter *)
  mutable created : obj list;        (* allocations since last drain, reversed *)
  mutable objects : obj list;        (* every allocation ever, reversed — the
                                        final heap for output digesting *)
  mutable next_oid : int;
  mutable next_tagid : int;
  id_stride : int;                   (* id increment: 1 sequentially; the
                                        parallel backend gives core [c] the
                                        ids congruent to [c] mod ncores *)
  out : Buffer.t;                    (* program output from System print builtins *)
  bounds_cost : int;                 (* extra cycles when bounds checks are on *)
  mutable steps : int;               (* interpreter fuel guard *)
  max_steps : int;
  mutable code : engine_code;        (* compiled bodies for the engine this
                                        context was created under; [Etree]
                                        routes every invocation through the
                                        tree-walker *)
  mutable monitor : monitor option;  (* sanitizer hook; [None] = no observer *)
  mutable retain : bool;             (* retain program output and the final-heap
                                        object list.  On (the default) for every
                                        batch entry point — digests need both.
                                        The serve runtime turns it off for
                                        open-loop streams, where neither is ever
                                        read and a long-running process must not
                                        accumulate per-request state; costs are
                                        still charged identically *)
}

(** What a context executes with.  The two representations are the
    two engines: no code (tree-walking oracle) or closure code
    (direct-threaded closures in {!Closure}).  The closure types live
    here, next to [ctx], because a closure frame carries its
    context. *)
and engine_code =
  | Etree
  | Eclos of closure_code

(** One closure-compiled [Ir.program]: every task body and every
    method body, mirroring {!Bytecode.program_code}. *)
and closure_code = {
  cc_tasks : centry array;
  cc_methods : centry array array;  (* indexed [class_id].(method_id) *)
}

(** A compiled body entry.  [ce_entry] is the closure for the body's
    first instruction; it is a mutable field (patched after all bodies
    compile) so that mutually recursive methods can capture each
    other's entries before either is built. *)
and centry = {
  ce_body : Bytecode.body;           (* bank sizes and the slot map *)
  mutable ce_entry : cframe -> value;
}

(** The per-invocation state a closure chain threads through itself:
    the three register banks plus the executing context.  Banks are
    fresh per invocation, so closures capture register *indices* at
    codegen and index into the frame at run time. *)
and cframe = {
  cfi : int array;                   (* unboxed ints and booleans (0/1) *)
  cff : float array;                 (* unboxed floats *)
  cfv : value array;                 (* boxed values *)
  cfc : ctx;
}

(** [create prog] builds an interpreter context.  [id_base]/[id_stride]
    partition the object- and tag-id spaces so that contexts executing
    concurrently on different cores never allocate colliding ids
    (core [c] of [n] passes [~id_base:c ~id_stride:n]). *)
let create ?(bounds_check = false) ?(max_steps = max_int) ?(id_base = 0) ?(id_stride = 1) prog
    =
  if id_stride < 1 then invalid_arg "Interp.create: id_stride must be >= 1";
  {
    prog;
    cycles = 0;
    created = [];
    objects = [];
    next_oid = id_base;
    next_tagid = id_base;
    id_stride;
    out = Buffer.create 256;
    bounds_cost = (if bounds_check then 2 else 0);
    steps = 0;
    max_steps;
    code = Etree;
    monitor = None;
    retain = true;
  }

let notify_read ctx o fid = match ctx.monitor with Some m -> m.mn_read o fid | None -> ()
let notify_write ctx o fid = match ctx.monitor with Some m -> m.mn_write o fid | None -> ()

let charge ctx n = ctx.cycles <- ctx.cycles + n

let fuel_msg = "interpreter fuel exhausted"

(** One IR node visited: the tree walker's per-node fuel step.  The
    closure engine makes the same check once per [Kcost] block
    aggregate. *)
let step ctx =
  let s = ctx.steps + 1 in
  ctx.steps <- s;
  if s > ctx.max_steps then raise (Runtime_error fuel_msg)

let fresh_oid ctx =
  let id = ctx.next_oid in
  ctx.next_oid <- id + ctx.id_stride;
  id

let fresh_tag ctx ty =
  let id = ctx.next_tagid in
  ctx.next_tagid <- id + ctx.id_stride;
  { tg_id = id; tg_ty = ty; tg_bound = [] }

(* ------------------------------------------------------------------ *)
(* Random: Java-compatible 48-bit LCG, fully deterministic. *)

let lcg_mult = 0x5DEECE66DL
let lcg_add = 0xBL
let lcg_mask = Int64.sub (Int64.shift_left 1L 48) 1L

let rng_create seed =
  {
    r_state = Int64.logand (Int64.logxor (Int64.of_int seed) lcg_mult) lcg_mask;
    r_gauss = nan;
  }

let rng_next r bits =
  r.r_state <- Int64.logand (Int64.add (Int64.mul r.r_state lcg_mult) lcg_add) lcg_mask;
  Int64.to_int (Int64.shift_right_logical r.r_state (48 - bits))

(** [java.util.Random.nextInt(bound)], faithfully: a power-of-two
    bound multiplies one 31-bit draw ([(bound * next(31)) >> 31]);
    otherwise draw-mod with a rejection loop that re-draws whenever
    the draw falls in the truncated final partial range — the check is
    Java's [u - v + (bound-1)] overflowing a 32-bit int, made explicit
    here because OCaml ints are wider. *)
let rng_next_int r bound =
  if bound <= 0 then raise (Runtime_error "Random.nextInt: bound must be positive");
  if bound land (bound - 1) = 0 then (bound * rng_next r 31) asr 31
  else begin
    let rec draw () =
      let u = rng_next r 31 in
      let v = u mod bound in
      if u - v + (bound - 1) > 0x7FFFFFFF then draw () else v
    in
    draw ()
  end

let rng_next_double r =
  let hi = rng_next r 26 and lo = rng_next r 27 in
  (float_of_int ((hi * 134217728) + lo)) /. 9007199254740992.0

let rng_next_gaussian r =
  if Float.is_nan r.r_gauss then begin
    let rec loop () =
      let v1 = (2.0 *. rng_next_double r) -. 1.0 in
      let v2 = (2.0 *. rng_next_double r) -. 1.0 in
      let s = (v1 *. v1) +. (v2 *. v2) in
      if s >= 1.0 || s = 0.0 then loop ()
      else begin
        let multiplier = sqrt (-2.0 *. log s /. s) in
        r.r_gauss <- v2 *. multiplier;
        v1 *. multiplier
      end
    in
    loop ()
  end
  else begin
    let g = r.r_gauss in
    r.r_gauss <- nan;
    g
  end

(* ------------------------------------------------------------------ *)
(* Operation semantics shared by both engines.  Any helper here is the
   single definition of its operation's observable behavior (result,
   error message, rounding), so the engines cannot drift. *)

(** An IR comparison on ints: [ICmp] directly, and [FCmp]/[SCmp]/[BCmp]
    on the three-way result of their [compare].  Both engines compare
    floats with [Float.compare] in place: it is a primitive, so it
    compiles inline on unboxed floats, where a helper here would box
    both operands on every call ([-opaque] stops cross-module
    inlining). *)
let icmp (c : Ir.cmp) (x : int) (y : int) =
  match c with
  | Clt -> x < y | Cle -> x <= y | Cgt -> x > y | Cge -> x >= y
  | Ceq -> x = y | Cne -> x <> y

(** [F2I] cast: NaN collapses to 0, like the paper platform's
    software float-to-int. *)
let f2i f = if Float.is_nan f then 0 else int_of_float f

let format_double f = Printf.sprintf "%g" f
let print_double f = Printf.sprintf "%.6f" f

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> raise (Runtime_error ("Integer.parseInt: bad input " ^ s))

let parse_double s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> raise (Runtime_error ("Double.parseDouble: bad input " ^ s))

let str_char_at s i =
  if i < 0 || i >= String.length s then raise (Runtime_error "charAt out of bounds");
  Char.code s.[i]

let str_substring s i j =
  if i < 0 || j > String.length s || i > j then
    raise (Runtime_error "substring out of bounds");
  String.sub s i (j - i)

let str_index_of s pat from =
  let n = String.length s and m = String.length pat in
  let rec search i =
    if i + m > n then -1 else if String.sub s i m = pat then i else search (i + 1)
  in
  if m = 0 then max 0 from else search (max 0 from)

let str_hash s =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 31) + Char.code c) land 0x3FFFFFFF) s;
  !h

let print_line ctx s =
  if ctx.retain then begin
    Buffer.add_string ctx.out s;
    Buffer.add_char ctx.out '\n'
  end

let bounds_error idx n =
  raise (Runtime_error (Printf.sprintf "array index %d out of bounds [0,%d)" idx n))

(* ------------------------------------------------------------------ *)
(* Allocation *)

let default_of_typ (t : Ir.typ) =
  match t with
  | Tint -> Vint 0
  | Tdouble -> Vfloat 0.0
  | Tboolean -> Vbool false
  | _ -> Vnull

let rec alloc_array ctx (elem : Ir.typ) dims =
  match dims with
  | [] -> invalid_arg "alloc_array: no dimensions"
  | [ n ] ->
      if n < 0 then raise (Runtime_error "negative array size");
      charge ctx (Cost.dyn_alloc_array n);
      (match elem with
      | Tint -> Varr (Iarr (Array.make n 0))
      | Tdouble -> Varr (Farr (Array.make n 0.0))
      | Tboolean -> Varr (Oarr (Array.make n (Vbool false)))
      | _ -> Varr (Oarr (Array.make n Vnull)))
  | n :: rest ->
      if n < 0 then raise (Runtime_error "negative array size");
      charge ctx (Cost.dyn_alloc_array n);
      Varr (Oarr (Array.init n (fun _ -> alloc_array ctx elem rest)))

(** A fresh object for [site]: id assigned now (before any constructor
    runs), fields at their typed defaults, flag word from the site's
    initial assignment.  The caller charges the allocation cost and
    appends to [created]/[objects] *after* the constructor, exactly
    like the original tree-walker did. *)
let make_object ctx sid =
  let site = ctx.prog.sites.(sid) in
  let cls = ctx.prog.classes.(site.s_class) in
  let nfields = Array.length cls.c_fields in
  let o =
    {
      o_id = fresh_oid ctx;
      o_class = site.s_class;
      o_site = sid;
      o_fields = Array.init nfields (fun i -> default_of_typ cls.c_fields.(i).f_typ);
      o_flags = Ir.site_initial_word site;
      o_tags = [];
      o_lock = Atomic.make (-1);
      o_lock_until = 0;
      o_gen = Atomic.make 0;
    }
  in
  (match ctx.monitor with Some m -> m.mn_alloc o | None -> ());
  o

(* ------------------------------------------------------------------ *)
(* Invocation results, startup object, and final-state accessors *)

type invocation_result = {
  tr_exit : int;                    (* exit index taken *)
  tr_cycles : int;                  (* cycles charged by the body *)
  tr_created : obj list;            (* objects allocated, in order *)
  tr_frame : value array;           (* final frame (for tag slots) *)
  tr_output : string;               (* program output emitted *)
}

(** Create the startup object that boots a Bamboo program: a
    [StartupObject] in the [initialstate] abstract state whose [args]
    field holds the command-line strings. *)
let make_startup ctx (args : string list) =
  let cid = ctx.prog.startup in
  let cls = ctx.prog.classes.(cid) in
  let nfields = Array.length cls.c_fields in
  let o =
    {
      o_id = fresh_oid ctx;
      o_class = cid;
      o_site = -1;
      o_fields = Array.init nfields (fun i -> default_of_typ cls.c_fields.(i).f_typ);
      o_flags = 0;
      o_tags = [];
      o_lock = Atomic.make (-1);
      o_lock_until = 0;
      o_gen = Atomic.make 0;
    }
  in
  (match Ir.flag_index cls "initialstate" with
  | Some bit -> o.o_flags <- 1 lsl bit
  | None -> ());
  Array.iteri
    (fun i (f : Ir.fieldinfo) ->
      if f.f_name = "args" then
        o.o_fields.(i) <- Varr (Oarr (Array.of_list (List.map (fun s -> Vstr s) args))))
    cls.c_fields;
  if ctx.retain then ctx.objects <- o :: ctx.objects;
  o

(** Program output accumulated so far. *)
let output ctx = Buffer.contents ctx.out

(** Every object this context ever allocated (startup object
    included), in allocation order — the final heap handed to the
    canonical output digest. *)
let final_objects ctx = List.rev ctx.objects
