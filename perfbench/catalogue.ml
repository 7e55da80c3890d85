(** Every metric the benchmark prints, with its unit.  [BENCHMARK.json]
    names the same metrics; the tests keep the two in step.

    A ratio names the metric it was divided by (its base), and the base
    is printed beside it, so nobody reads a rate without its
    denominator. *)

type kind = Plain | Ratio of string

type spec = { name : string; unit_ : string; kind : kind }

let plain name unit_ = { name; unit_; kind = Plain }
let ratio name unit_ ~base = { name; unit_; kind = Ratio base }

(** What a user of the system sees; printed with [--trace 0] on every
    workload. *)
let end_to_end =
  [
    plain "setup_s" "s";
    plain "pass_s" "s";
    plain "layout_mcycles" "Mcycles";
    plain "peak_rss_mb" "MB";
  ]

(** The programs the [compile] workload builds, in registry order. *)
let compile_programs =
  [ "Tracking"; "KMeans"; "MonteCarlo"; "FilterBank"; "Fractal"; "Series"; "KeywordCount" ]

(** The paper programs the [exec] workload runs. *)
let exec_programs = [ "Tracking"; "KMeans"; "MonteCarlo"; "FilterBank"; "Fractal"; "Series" ]

let schedules = [ "static"; "steal" ]

let per_schedule sch =
  let n m = Printf.sprintf "exec.%s.%s" m sch in
  [
    plain (n "s") "s";
    plain (n "invocations") "count";
    ratio (n "us_per_invocation") "us" ~base:(n "invocations");
    ratio (n "messages_per_invocation") "ratio" ~base:(n "invocations");
    plain (n "lock_retries") "count";
    ratio (n "idle_polls_per_invocation") "ratio" ~base:(n "invocations");
    plain (n "steal_attempts") "count";
    ratio (n "steal_hit_rate") "ratio" ~base:(n "steal_attempts");
    plain (n "stolen_invocations") "count";
    plain (n "active_cores") "count";
    ratio (n "busy_imbalance") "ratio" ~base:(n "active_cores");
  ]

(** One layer's view each, named [<layer>.<metric>] after the [lib/]
    module; printed with [--trace 1].  A layer that does not run in a
    workload reports 0 there. *)
let per_layer =
  [
    plain "frontend.s" "s";
    plain "analysis.s" "s";
    plain "check.s" "s";
    plain "profile.s" "s";
    plain "profile.mcycles" "Mcycles";
    ratio "profile.mcycles_per_s" "Mcycles/s" ~base:"profile.s";
    plain "runtime.s" "s";
    plain "runtime.mcycles" "Mcycles";
    ratio "runtime.mcycles_per_s" "Mcycles/s" ~base:"runtime.s";
    plain "synth.s" "s";
  ]
  @ List.map (fun p -> plain ("synth.s." ^ p) "s") compile_programs
  @ [
      plain "synth.evaluated" "count";
      plain "synth.requests" "count";
      ratio "synth.hit_rate" "ratio" ~base:"synth.requests";
      ratio "synth.prune_rate" "ratio" ~base:"synth.evaluated";
      ratio "synth.evals_per_s" "1/s" ~base:"synth.s";
      plain "synth.restarts" "count";
      plain "sim.events" "count";
      ratio "sim.events_per_s" "1/s" ~base:"synth.s";
      plain "sim.layouts" "count";
      ratio "sim.est_error_pct" "%" ~base:"sim.layouts";
    ]
  @ List.concat_map per_schedule schedules
  @ List.map (fun p -> plain ("exec.s." ^ p) "s") exec_programs
  @ [
      plain "serve.p50_ms" "ms";
      plain "serve.p90_ms" "ms";
      plain "serve.service_p50_ms" "ms";
      plain "serve.queue_p50_ms" "ms";
      plain "serve.p99_ms" "ms";
      plain "serve.p99_beyond" "count";
      plain "serve.tail_pct" "%";
      plain "serve.tail_ms" "ms";
      plain "serve.tail_beyond" "count";
      plain "serve.max_ms" "ms";
      plain "serve.stall_s" "s";
      plain "serve.open_requests" "count";
      plain "serve.open_s" "s";
      ratio "serve.sustained_rps" "1/s" ~base:"serve.open_s";
      plain "serve.burst_requests" "count";
      plain "serve.burst_s" "s";
      ratio "serve.capacity_rps" "1/s" ~base:"serve.burst_s";
      ratio "serve.idle_polls_per_request" "ratio" ~base:"serve.open_requests";
      plain "serve.mismatches" "count";
      plain "trace.spans" "count";
    ]
  @ List.filter_map
      (fun s ->
        if s.unit_ = "s" || s.unit_ = "ms" then Some (plain ("trace.overhead." ^ s.name) s.unit_)
        else None)
      end_to_end

let specs ~trace = if trace then per_layer else end_to_end

(** The metrics object of the result line: every spec of the mode, in
    catalogue order, each with its unit.  Per-layer metrics a workload
    did not produce read 0 (the layer did not run); a missing
    end-to-end metric or a name outside the catalogue is a bug in the
    benchmark and raises. *)
let render ~trace (values : (string * float) list) : Json.t =
  let specs = specs ~trace in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun s -> s.name = name) specs) then
        invalid_arg (Printf.sprintf "Catalogue.render: unknown metric %s" name))
    values;
  Json.Obj
    (List.map
       (fun s ->
         let v =
           match List.assoc_opt s.name values with
           | Some v -> v
           | None when trace -> 0.0
           | None -> invalid_arg (Printf.sprintf "Catalogue.render: missing metric %s" s.name)
         in
         (s.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str s.unit_) ]))
       specs)
