(** Bamboo: a data-centric, object-oriented approach to many-core
    software — public API.

    This umbrella module re-exports every subsystem and provides the
    end-to-end pipeline of the paper's compiler:

    {ol
    {- {!compile}: parse and type-check Bamboo source into IR;}
    {- {!analyse}: dependence analysis (ASTGs), disjointness analysis
       (shared-lock groups), CSTG construction;}
    {- {!profile}: single-core bootstrap profiling run;}
    {- {!synthesize}: candidate generation + directed simulated
       annealing against a machine description;}
    {- {!execute}: run the program under a layout on the cycle-level
       many-core runtime.}}

    See the [examples/] directory for runnable walkthroughs. *)

module Support = Bamboo_support
module Clock = Bamboo_support.Clock
module Prng = Bamboo_support.Prng
module Pool = Bamboo_support.Pool
module Sharded_table = Bamboo_support.Sharded_table
module Stats = Bamboo_support.Stats
module Table = Bamboo_support.Table
module Dot = Bamboo_support.Dot
module Graph = Bamboo_graph.Digraph
module Ast = Bamboo_ast.Ast
module Lexer = Bamboo_frontend.Lexer
module Parser = Bamboo_frontend.Parser
module Typecheck = Bamboo_frontend.Typecheck
module Ir = Bamboo_ir.Ir
module Value = Bamboo_interp.Value
module Interp = Bamboo_interp.Interp
module Bytecode = Bamboo_interp.Bytecode
module Iclosure = Bamboo_interp.Closure
module Cost = Bamboo_interp.Cost
module Astg = Bamboo_analysis.Astg
module Disjoint = Bamboo_analysis.Disjoint
module Effects = Bamboo_analysis.Effects
module Diagnostic = Bamboo_check.Diagnostic
module Check = Bamboo_check.Check
module Check_effects = Bamboo_check.Effects
module Cstg = Bamboo_cstg.Cstg
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Profile = Bamboo_profile.Profile
module Schedsim = Bamboo_sim.Schedsim
module Critpath = Bamboo_sim.Critpath
module Candidates = Bamboo_synth.Candidates
module Evaluator = Bamboo_synth.Evaluator
module Dsa = Bamboo_synth.Dsa
module Pset = Bamboo_runtime.Pset
module Runtime = Bamboo_runtime.Runtime
module Mailbox = Bamboo_support.Mailbox
module Chase_lev = Bamboo_support.Chase_lev
module Exec = Bamboo_exec.Exec
module Sanitize = Bamboo_exec.Sanitize
module Canon = Bamboo_exec.Canon
module Serve = Bamboo_serve.Serve
module Histogram = Bamboo_serve.Histogram

(** Static analysis results bundled together. *)
type analysis = {
  astgs : Astg.t array;
  cstg : Cstg.t;
  disjoint : Disjoint.task_report list;
  lock_groups : int array;
}

(** Parse and type-check Bamboo source code. *)
let compile (src : string) : Ir.program = Typecheck.compile_source src

(** Run the static analyses: per-class ASTGs, the CSTG, and the
    disjointness analysis with its shared-lock groups. *)
let analyse (prog : Ir.program) : analysis =
  let astgs = Astg.of_program prog in
  let cstg = Cstg.build prog astgs in
  let disjoint = Disjoint.analyse prog in
  let lock_groups = Disjoint.lock_groups prog disjoint in
  { astgs; cstg; disjoint; lock_groups }

(** Run the static verifier's full rule set (BAM001..BAM011) over
    already-computed analysis results; see {!Bamboo_check.Check}. *)
let check (prog : Ir.program) (an : analysis) : Diagnostic.t list =
  Check.run
    (Check.make_input prog ~astgs:an.astgs ~disjoint:an.disjoint ~lock_groups:an.lock_groups)

(** Single-core profiling run (the paper's bootstrap profile). *)
let profile ?(args = []) ?max_invocations (prog : Ir.program) : Profile.t =
  fst (Profile.collect ~args ?max_invocations prog)

(** Synthesize an optimized layout for [machine] using candidate
    generation and multi-start directed simulated annealing.  [jobs]
    sets the width of the parallel evaluation engine; [starts] the
    number of independent annealing chains (sharing one memo cache);
    [tempering] anneals the survival/continuation probabilities.
    Results are bit-identical for any [jobs] at a given
    [starts]/[tempering]/[seed]. *)
let synthesize ?config ?ncandidates ?jobs ?starts ?tempering ?(seed = 42) (prog : Ir.program)
    (an : analysis) (prof : Profile.t) (machine : Machine.t) : Dsa.outcome =
  Dsa.synthesize ?config ?ncandidates ?jobs ?starts ?tempering ~seed prog an.cstg prof machine

(** Execute the program under a layout on the cycle-level many-core
    runtime, using the analysis' shared-lock groups. *)
let execute ?(args = []) ?max_invocations ?(record_trace = false) (prog : Ir.program)
    (an : analysis) (layout : Layout.t) : Runtime.result =
  Runtime.run ~args ?max_invocations ~record_trace ~lock_groups:an.lock_groups prog layout

(** Execute the program for real on OCaml 5 domains — the parallel
    many-core backend (see {!Exec}); the sequential {!execute} is its
    equivalence oracle.  [schedule] picks the placement discipline
    ([Exec.Static] or [Exec.Steal]); under [Steal] the BAM011
    steal-safety contract is computed from the analysis results here
    so {!Exec} does not re-run the effects pass. *)
let execute_parallel ?(args = []) ?max_invocations ?domains ?seed ?sanitize
    ?(schedule = Exec.Static) (prog : Ir.program) (an : analysis) (layout : Layout.t) :
    Exec.result =
  let steal_safe =
    match schedule with
    | Exec.Static -> None
    | Exec.Steal ->
        let eff = Effects.analyse prog an.astgs in
        Some (Effects.steal_contract eff ~lock_groups:an.lock_groups prog).Effects.st_safe
  in
  Exec.run ~args ?max_invocations ?domains ?seed ?sanitize ~schedule ?steal_safe
    ~lock_groups:an.lock_groups prog layout

(** Serve a deterministic open-loop request stream on the parallel
    backend (see {!Serve}): arrivals at [config.sv_rate] req/s for
    [config.sv_duration] seconds, per-class tail-latency histograms,
    bounded-mailbox admission control.  Like {!execute_parallel}, the
    BAM011 steal contract is computed here when the stream runs under
    [Exec.Steal]. *)
let serve ~(config : Serve.config) (prog : Ir.program) (an : analysis) (layout : Layout.t) :
    Serve.report =
  let steal_safe =
    match config.Serve.sv_schedule with
    | Exec.Static -> None
    | Exec.Steal ->
        let eff = Effects.analyse prog an.astgs in
        Some (Effects.steal_contract eff ~lock_groups:an.lock_groups prog).Effects.st_safe
  in
  Serve.run ~lock_groups:an.lock_groups ?steal_safe ~config prog layout

(** Estimate the execution of a layout with the scheduling simulator. *)
let estimate ?max_invocations (prog : Ir.program) (prof : Profile.t) (layout : Layout.t) : int
    =
  (Schedsim.simulate ?max_invocations prog prof layout).s_total_cycles

(** The paper's §7 future-work extension: re-profile an execution and
    re-synthesize the layout for the observed workload.  Returns the
    new layout (and its estimate) computed from the records of a run
    under the old layout. *)
let reoptimize ?config ?ncandidates ?jobs ?starts ?tempering ?(seed = 43) (prog : Ir.program)
    (an : analysis) (run : Runtime.result) (machine : Machine.t) : Dsa.outcome =
  let prof = Profile.of_records prog ~total_cycles:run.r_total_cycles run.r_records in
  Dsa.synthesize ?config ?ncandidates ?jobs ?starts ?tempering ~seed prog an.cstg prof machine
