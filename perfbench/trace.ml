(** Spans recorded by the benchmark around its calls into each layer of
    the pipeline.  Spans stay in memory while the workload runs and are
    written once, at exit, as Chrome trace-event JSON (viewable in
    Perfetto), the format spans inside the program will use too.

    Only the benchmark's own thread records, so a stack of open spans
    gives every span its parent.  A layer's self time is its span minus
    the time its child spans cover. *)

module Clock = Bamboo.Clock

type span = {
  id : int;
  parent : int;         (* -1 for a root span *)
  name : string;        (* the layer, e.g. "synth" *)
  tag : string;         (* program or phase id *)
  group : int;          (* pass or round index; -1 during set-up *)
  t0 : int64;           (* monotonic ns *)
  t1 : int64;
}

type t = {
  mutable on : bool;
  mutable group : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (* most recent first *)
}

let create ?(on = false) () = { on; group = -1; next = 0; stack = []; spans = [] }

(** Run [f] inside a span named [name]; records nothing while tracing
    is off. *)
let with_span t ?(tag = "") name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; name; tag; group = t.group; t0; t1 } :: t.spans)
  end

let spans t = List.rev t.spans

(** Self time of every span, in ns: its duration minus the union of its
    children's intervals (clipped to the span). *)
let self_times (spans : span list) : (span * int64) list =
  let children = Hashtbl.create 64 in
  List.iter (fun (s : span) -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun (s : span) ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun (c : span) -> (Int64.max c.t0 s.t0, Int64.min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Int64.max a reach in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, s.t0) kids
      in
      (s, Int64.sub (Int64.sub s.t1 s.t0) covered))
    spans

(** Seconds of self time per group, summed over the spans [keep]
    selects; groups with no matching span count 0.  Returns one value
    per group in [groups]. *)
let self_seconds_by_group (selfs : (span * int64) list) ~groups ~keep =
  List.map
    (fun g ->
      List.fold_left
        (fun acc ((s : span), ns) ->
          if s.group = g && keep s then acc +. (Int64.to_float ns *. 1e-9) else acc)
        0.0 selfs)
    groups

(** The Chrome trace-event document: one complete ("X") event per span,
    timestamps in microseconds from the first span. *)
let to_chrome (spans : span list) : Json.t =
  let origin = List.fold_left (fun acc (s : span) -> Int64.min acc s.t0) Int64.max_int spans in
  let us ns = Int64.to_float ns /. 1e3 in
  let events =
    List.map
      (fun ((s : span), self) ->
        Json.Obj
          [
            ("name", Json.Str (if s.tag = "" then s.name else s.name ^ " " ^ s.tag));
            ("cat", Json.Str s.name);
            ("ph", Json.Str "X");
            ("ts", Json.Num (us (Int64.sub s.t0 origin)));
            ("dur", Json.Num (us (Int64.sub s.t1 s.t0)));
            ("pid", Json.Num 1.0);
            ("tid", Json.Num 1.0);
            ( "args",
              Json.Obj
                [
                  ("id", Json.Num (float_of_int s.id));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("tag", Json.Str s.tag);
                  ("group", Json.Num (float_of_int s.group));
                  ("self_us", Json.Num (us self));
                ] );
          ])
      (self_times spans)
  in
  Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_chrome (spans t))))
