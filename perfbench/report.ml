(** The result line: the metrics of a finished workload, and the JSON
    object printed last on stdout. *)

(** Peak resident set of this process in MB, from the kernel's
    high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> scan ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(** The metrics object.  Untraced, the end-to-end metrics over the
    untraced passes.  Traced, the per-layer metrics, with the tracing
    overhead as the traced minus the untraced value of each end-to-end
    timing (traced and untraced passes interleave in one run). *)
let metrics ~tracing (ctx : Workloads.ctx) (r : Workloads.result) =
  let untraced = r.end_to_end ~traced:false @ [ ("peak_rss_mb", peak_rss_mb ()) ] in
  if not tracing then Catalogue.render ~trace:false untraced
  else
    let traced = r.end_to_end ~traced:true in
    let overhead =
      List.filter_map
        (fun (s : Catalogue.spec) ->
          match (List.assoc_opt s.name traced, List.assoc_opt s.name untraced) with
          | Some t, Some u when s.unit_ = "s" || s.unit_ = "ms" ->
              Some ("trace.overhead." ^ s.name, t -. u)
          | _ -> None)
        Catalogue.end_to_end
    in
    let spans = float_of_int (List.length (Trace.spans ctx.tracer)) in
    Catalogue.render ~trace:true (r.layers @ overhead @ [ ("trace.spans", spans) ])

let result_line (ctx : Workloads.ctx) metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (ctx.failed = 0));
         ("attempted", Json.Num (float_of_int ctx.attempted));
         ("failed", Json.Num (float_of_int ctx.failed));
         ("metrics", metrics);
       ])
