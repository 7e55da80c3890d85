(** Types shared by the two scheduling-simulator implementations.

    {!Schedsim} (the dense fast path) and the reference simulator (the
    original list/Hashtbl implementation, kept in test support as the
    equivalence oracle) must produce bit-identical {!result} values,
    so the whole observable surface — tokens, entries, trace events,
    outcome — is defined once here and re-exported through
    {!Schedsim}. *)

module Ir = Bamboo_ir.Ir

exception Sim_overrun of string

(** Abstract object token: class plus abstract state.  [tk_group]
    approximates tag identity: tokens allocated by the same simulated
    invocation share a group, mirroring the benchmarks' idiom of
    tagging an allocation batch with one fresh tag instance.  Tag-hash
    routing and tag-constrained assembly use the group so co-tagged
    tokens meet at the same task instance, as they do in the real
    runtime. *)
type token = {
  tk_id : int;
  tk_class : Ir.class_id;
  tk_group : int;              (* creating event id, -1 for the boot token *)
  mutable tk_flags : int;
  mutable tk_tags : int;
  mutable tk_gen : int;
}

(** A parameter-set entry.  Validity ([e_gen] matching the token's
    current generation, and the guard holding) is {e monotone}: a
    token's guard-relevant state ([tk_flags], [tk_tags]) is mutated
    only together with a [tk_gen] increment, so an entry is valid
    until the generation bump and invalid forever after.  Both
    simulators (and the deque tombstoning fast path) rely on this. *)
type entry = {
  e_tok : token;
  e_gen : int;
  e_producer : int;   (* event id that produced/transitioned the token, -1 for boot *)
  e_arrival : int;    (* cycle the entry reached the core *)
}

type invocation = { iv_task : Ir.taskinfo; iv_entries : entry array }

(** One simulated task execution, for trace analysis (Figure 6). *)
type event = {
  ev_id : int;
  ev_core : int;
  ev_task : Ir.task_id;
  ev_exit : int;
  ev_ready : int;     (* when all data dependences were resolved *)
  ev_start : int;     (* when the body started (after dispatch+locks) *)
  ev_finish : int;
  ev_inputs : (int * int) array; (* (producer event id, arrival) per parameter *)
}

type sim_event = Arrive of int * entry | Ready of int | Finish of int

(** Whether a simulation ran to quiescence or was abandoned because
    simulated time exceeded a caller-supplied bound.  Simulated time
    is monotone, so [Bounded b] proves the true total strictly
    exceeds [b] — which is what lets DSA prune candidate layouts that
    cannot beat an incumbent without finishing their simulation. *)
type status = Complete | Bounded of int

type result = {
  s_total_cycles : int;
  s_invocations : int;
  s_events : event array;        (* completion order *)
  s_per_core_busy : int array;
  s_status : status;
  s_sim_events : int;            (* discrete events processed *)
}
