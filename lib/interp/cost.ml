(** Cycle cost model.

    The TILEPro64 substitute charges a fixed cycle cost per IR
    operation.  Integer operations are cheap; floating point is
    costly (the TILEPro64 has no FPU — floating point runs in
    software); memory operations model L1-hit latencies; [Math.*]
    routines model the software libm.  The absolute values are a
    calibration, not a claim — experiments compare implementations
    under the *same* model, which is what preserves the paper's
    relative results. *)

let const = 1
let local = 1
let iarith = 1
let imul = 2
let idiv = 25
let farith = 4
let fmul = 5
let fdiv = 40
let cmp = 1
let branch = 1
let field_access = 3
let array_access = 3
let call_overhead = 15
let alloc_base = 30
let alloc_word = 1
let math_fn = 90
let str_base = 10
let str_per_char = 1
let print = 50
let rng_step = 20
let cast = 2

(* ------------------------------------------------------------------ *)
(* Per-operation cost tables shared by the tree-walking oracle and the
   closure engine's bytecode compiler.  Both engines must read the
   *same* table: the compiler pre-aggregates these constants per basic block,
   the tree-walker charges them per node, and the equivalence suite
   asserts the totals are bit-identical.  Operations whose cost
   depends on runtime data (string lengths, array allocation extents,
   per-context bounds checking) get a [dyn_*] helper instead and are
   charged at the executing instruction. *)

module Ir = Bamboo_ir.Ir

(** Constant cycle cost of a binary operator.  String comparison and
    concatenation are dynamic ([dyn_str_cmp]/[dyn_str_concat]) and
    cost 0 here. *)
let of_binop : Ir.binop -> int = function
  | IAdd | ISub | IBand | IBor | IBxor | IShl | IShr -> iarith
  | IMul -> imul
  | IDiv | IMod -> idiv
  | FAdd | FSub -> farith
  | FMul -> fmul
  | FDiv -> fdiv
  | ICmp _ | FCmp _ | BCmp _ | RCmp _ -> cmp
  | SCmp _ | SConcat -> 0

let dyn_str_cmp x y = str_base + (str_per_char * min (String.length x) (String.length y))
let dyn_str_concat x y = str_base + (str_per_char * (String.length x + String.length y))
let dyn_str_substring i j = str_base + (str_per_char * max 0 (j - i))
let dyn_str_scan s = str_base + (str_per_char * String.length s)
let dyn_alloc_array n = alloc_base + (alloc_word * n)
let alloc_object nfields = alloc_base + (alloc_word * Value.object_words nfields)

(** Constant cycle cost of a builtin.  [StrSubstring]/[StrEquals]/
    [StrIndexOf]/[StrHash] are fully dynamic and cost 0 here. *)
let of_builtin : Ir.builtin -> int = function
  | MathSin | MathCos | MathTan | MathAtan | MathSqrt | MathPow
  | MathAbs | MathLog | MathExp | MathFloor | MathCeil
  | MathMin | MathMax -> math_fn
  | MathIMin | MathIMax | MathIAbs -> iarith
  | StrLen | StrCharAt -> str_base
  | StrSubstring | StrEquals | StrIndexOf | StrHash -> 0
  | IntToString | DoubleToString | ParseInt | ParseDouble -> str_base
  | PrintStr | PrintInt | PrintDouble -> print
  | RandomNew -> alloc_base
  | RandomNextInt | RandomNextDouble -> rng_step
  | RandomNextGaussian -> 2 * rng_step
  | ArrayLength -> local

(* Runtime costs (charged by the runtime system, not the interpreter): *)

(** Dequeue a task invocation and run its guard checks. *)
let dispatch = 120

(** Acquire or release one parameter-object lock. *)
let lock_op = 40

(** Apply a taskexit's flag/tag actions and compute successor tasks. *)
let flag_update = 60

(** Enqueue an object into a (local) parameter set. *)
let enqueue = 30

(** Fixed overhead of sending an object reference to another core, on
    top of the mesh hop latency from the machine model. *)
let message_send = 80
