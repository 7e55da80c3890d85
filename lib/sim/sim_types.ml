(** Types shared by the two scheduling-simulator implementations.

    {!Schedsim} (the dense fast path) and the reference simulator (the
    original list/Hashtbl implementation, kept in test support as the
    equivalence oracle) must produce bit-identical results, so the
    whole observable surface — tokens, entries, trace events,
    outcome — is defined once here and re-exported through
    {!Schedsim}.  The dense path records its trace as {!Trace} rows,
    which {!events} turns into [event] records; the reference builds
    those records itself, so comparing the two checks the recorder. *)

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

(** One simulated task execution, for trace analysis (Figure 6): a
    row of the {!Trace}, built on demand by {!Trace.event}. *)
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

(** The trace of one simulation: one row per finished invocation, in
    completion order, recorded into [int] arrays so that recording
    allocates nothing per event.  A row is [width] ints — event id,
    core, task, exit, ready, start, finish, input count, then one
    (producer event id, arrival) pair per input — with room for
    [max_inputs] inputs.  Rows are stored [2^shift] to a chunk of at
    most 128 words (the runtime's largest size class, so a chunk that
    a long simulation promotes lands in a size-classed pool), and a
    chunk is allocated when its first row arrives.  The table of
    chunks starts at [initial_chunks] entries and doubles when full,
    so a simulation allocates trace memory in proportion to the rows
    it records, and a pruned one pays only for those.  Only the table
    of a trace longer than 128 chunks (about a thousand rows) is a
    large block.  A trace belongs to one simulation. *)
module Trace = struct
  type t = {
    width : int;
    shift : int;                     (* log2 of rows per chunk *)
    mutable chunks : int array array; (* [||] until a row lands in it *)
    mutable length : int;            (* rows recorded *)
  }

  (* Rows per chunk: the largest power of two that keeps a chunk
     within 128 words. *)
  let chunk_shift width =
    let rec go s = if s > 0 && width lsl s > 128 then go (s - 1) else s in
    go 7

  let initial_chunks = 16

  let create ~max_inputs =
    let width = 8 + (2 * max_inputs) in
    { width; shift = chunk_shift width; chunks = Array.make initial_chunks [||]; length = 0 }

  let length t = t.length

  let get t r field = t.chunks.(r lsr t.shift).(((r land ((1 lsl t.shift) - 1)) * t.width) + field)

  let id t r = get t r 0
  let core t r = get t r 1
  let task t r = get t r 2
  let exit t r = get t r 3
  let ready t r = get t r 4
  let start t r = get t r 5
  let finish t r = get t r 6

  (** Number of inputs (parameters) of row [r]. *)
  let input_count t r = get t r 7

  let producer t r i = get t r (8 + (2 * i))
  let arrival t r i = get t r (9 + (2 * i))

  (** Append the invocation [id] that ran [entries] on [core] from
      [start] to [finish].  Its ready time is the latest arrival of
      its entries (0 when it has none). *)
  let record t ~id ~core ~task ~exit ~start ~finish (entries : entry array) =
    let n = Array.length entries in
    if 8 + (2 * n) > t.width then invalid_arg "Trace.record: more inputs than max_inputs";
    let r = t.length in
    let c = r lsr t.shift in
    if c = Array.length t.chunks then begin
      let chunks = Array.make (2 * c) [||] in
      Array.blit t.chunks 0 chunks 0 c;
      t.chunks <- chunks
    end;
    if Array.length t.chunks.(c) = 0 then t.chunks.(c) <- Array.make (t.width lsl t.shift) 0;
    let chunk = t.chunks.(c) in
    let base = (r land ((1 lsl t.shift) - 1)) * t.width in
    let ready = ref 0 in
    for i = 0 to n - 1 do
      let e = entries.(i) in
      if e.e_arrival > !ready then ready := e.e_arrival;
      chunk.(base + 8 + (2 * i)) <- e.e_producer;
      chunk.(base + 9 + (2 * i)) <- e.e_arrival
    done;
    chunk.(base) <- id;
    chunk.(base + 1) <- core;
    chunk.(base + 2) <- task;
    chunk.(base + 3) <- exit;
    chunk.(base + 4) <- !ready;
    chunk.(base + 5) <- start;
    chunk.(base + 6) <- finish;
    chunk.(base + 7) <- n;
    t.length <- r + 1

  (** Row [r] as an {!event} record. *)
  let event t r =
    {
      ev_id = id t r;
      ev_core = core t r;
      ev_task = task t r;
      ev_exit = exit t r;
      ev_ready = ready t r;
      ev_start = start t r;
      ev_finish = finish t r;
      ev_inputs = Array.init (input_count t r) (fun i -> (producer t r i, arrival t r i));
    }
end

(** Whether a simulation ran to quiescence or was abandoned because
    simulated time exceeded a caller-supplied bound.  Simulated time
    is monotone, so [Bounded b] proves the true total strictly
    exceeds [b] — which is what lets DSA prune candidate layouts that
    cannot beat an incumbent without finishing their simulation. *)
type status = Complete | Bounded of int

type result = {
  s_total_cycles : int;
  s_invocations : int;
  s_trace : Trace.t;             (* completion order *)
  s_per_core_busy : int array;
  s_status : status;
  s_sim_events : int;            (* discrete events processed *)
}

(** The trace's events as records, in completion order, for callers
    that render or compare whole traces. *)
let events (r : result) = Array.init (Trace.length r.s_trace) (Trace.event r.s_trace)
