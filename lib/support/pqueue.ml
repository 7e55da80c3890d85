(** Binary min-heap priority queue.

    Used by the discrete-event scheduling simulator and the many-core
    runtime to order pending events by cycle time.  Ties are broken by
    insertion order so simulations are deterministic.

    The heap is three parallel arrays: priorities and insertion
    sequence numbers unboxed in [int] arrays, payloads in their own.
    Neither [push] nor the [min_prio]/[take] pop allocates, apart from
    doubling the arrays when they are full, so the simulator's event
    loop can run without allocating per event. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a; (* fills free payload slots, so popped payloads are not retained *)
}

let create ~dummy =
  { prio = Array.make 16 0; seq = Array.make 16 0; payload = Array.make 16 dummy; size = 0;
    next_seq = 0; dummy }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let n = 2 * Array.length t.prio in
  let extend a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.prio <- extend t.prio 0;
  t.seq <- extend t.seq 0;
  t.payload <- extend t.payload t.dummy

(* Does slot [i] pop before (priority [p], sequence [s])? *)
let before t i p s =
  let pi = t.prio.(i) in
  pi < p || (pi = p && t.seq.(i) < s)

let place t i p s v =
  t.prio.(i) <- p;
  t.seq.(i) <- s;
  t.payload.(i) <- v

let move t ~src ~dst = place t dst t.prio.(src) t.seq.(src) t.payload.(src)

(** [push t ~prio v] inserts [v] with priority [prio] (smaller pops first). *)
let push t ~prio v =
  if t.size = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  (* Move the hole up from the new last slot.  [v] has the largest
     sequence number, so it passes only strictly larger priorities. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && t.prio.((!i - 1) / 2) > prio do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  place t !i prio s v

(** [min_prio t] is the smallest priority in [t], which must not be
    empty.  With {!take} it makes an allocation-free pop. *)
let min_prio t =
  if t.size = 0 then invalid_arg "Pqueue.min_prio: empty queue";
  t.prio.(0)

(** [take t] removes the element with the smallest priority (the
    earliest pushed among equals) and returns its payload.  [t] must
    not be empty. *)
let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let top = t.payload.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let p = t.prio.(n) and s = t.seq.(n) and v = t.payload.(n) in
  t.payload.(n) <- t.dummy;
  if n > 0 then begin
    (* Move the hole down from the root to where the last element fits. *)
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= n then settled := true
      else begin
        let r = l + 1 in
        let c = if r < n && before t r t.prio.(l) t.seq.(l) then r else l in
        if before t c p s then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else settled := true
      end
    done;
    place t !i p s v
  end;
  top
