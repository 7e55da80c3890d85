(** Array-backed growable sequence with O(1) amortized append and
    lazy (tombstone) deletion.

    The scheduling simulator and the many-core runtime keep their
    per-task {e parameter sets} in these: objects arrive in dispatch
    order (append), invocation assembly scans them in that order, and
    entries disappear either because they were consumed or because a
    concurrent transition invalidated them.  The previous
    representation — [entry list ref] with [l := !l @ [e]] appends and
    [List.filter] sweeps — made both arrival and invalidation
    quadratic; this structure makes them O(1) amortized:

    - [push] appends into a doubling buffer;
    - [delete] overwrites a slot with the [dummy] sentinel (a
      tombstone) without shifting anything;
    - iteration skips tombstones, preserving insertion order;
    - [maybe_compact] rewrites the buffer only when tombstones
      outnumber live entries, so each slot is moved O(1) times over
      its lifetime.

    Slot indices returned by the scanning API stay valid until the
    next [push]/[compact], which lets a backtracking search record
    candidate slots and delete exactly the chosen ones.  The [dummy]
    value must never be pushed: physical equality with it is what
    marks a tombstone.

    [Schedsim]'s assembly and deduplication scans ([scan], [holds])
    read [buf], [len] and [dummy] directly instead of calling [get]
    per slot, because the library is compiled with [-opaque] and no
    call into this module is inlined.  They rely on three things: the
    slots in use are [buf.(0)] to [buf.(len - 1)], in insertion
    order; [delete] only overwrites a slot with [dummy] and moves
    nothing; and only [push], [compact], [maybe_compact] and [clear]
    change [len] or move slots, none of which a scan calls.  A change
    to this layout must change those scans with it. *)

type 'a t = {
  mutable buf : 'a array;
  mutable len : int;   (* slots in use, including tombstones *)
  mutable dead : int;  (* tombstones among them *)
  dummy : 'a;
}

let create ~dummy = { buf = Array.make 8 dummy; len = 0; dead = 0; dummy }

(** Number of slots, including tombstones — the bound for [get]. *)
let length t = t.len

(** Number of live (non-deleted) entries. *)
let live t = t.len - t.dead

let is_empty t = live t = 0

let push t x =
  if x == t.dummy then invalid_arg "Deque.push: cannot push the dummy sentinel";
  if t.len = Array.length t.buf then begin
    let buf = Array.make (2 * t.len) t.dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

(** [get t i] is the entry in slot [i], or the dummy if deleted. *)
let get t i = t.buf.(i)

let is_live t i = t.buf.(i) != t.dummy

(** Tombstone slot [i].  Idempotent. *)
let delete t i =
  if t.buf.(i) != t.dummy then begin
    t.buf.(i) <- t.dummy;
    t.dead <- t.dead + 1
  end

(** Drop every tombstone, preserving the order of live entries.
    Invalidates previously observed slot indices. *)
let compact t =
  if t.dead > 0 then begin
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      let x = t.buf.(i) in
      if x != t.dummy then begin
        t.buf.(!j) <- x;
        incr j
      end
    done;
    Array.fill t.buf !j (t.len - !j) t.dummy;
    t.len <- !j;
    t.dead <- 0
  end

(** Compact only when tombstones dominate, keeping the amortized cost
    of deletion constant. *)
let maybe_compact t = if t.dead > live t && t.len >= 16 then compact t

let iter f t =
  for i = 0 to t.len - 1 do
    let x = t.buf.(i) in
    if x != t.dummy then f x
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let exists p t =
  let rec go i = i < t.len && (((t.buf.(i) != t.dummy) && p t.buf.(i)) || go (i + 1)) in
  go 0

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let clear t =
  Array.fill t.buf 0 t.len t.dummy;
  t.len <- 0;
  t.dead <- 0
