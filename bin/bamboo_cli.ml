(* The bamboo compiler driver.

   Subcommands mirror the pipeline of the paper:

     bamboo check      <file.bam>              -- static verifier (BAM rules, text/JSON)
     bamboo analyze    <file.bam>              -- analysis summary + diagnostics
     bamboo astg       <file.bam> <Class>      -- print a class's ASTG
     bamboo cstg       <file.bam>              -- CSTG as Graphviz dot (Fig. 3)
     bamboo taskflow   <file.bam>              -- task flow as dot (Fig. 8)
     bamboo profile    <file.bam> [-- args]    -- single-core profile
     bamboo synth      <file.bam> [-- args]    -- synthesize a 62-core layout
     bamboo run        <file.bam> [-- args]    -- synthesize and execute (deterministic)
     bamboo exec       <file.bam> [-- args]    -- execute for real on OCaml 5 domains
     bamboo serve      <file.bam> [-- args]    -- open-loop request stream + latency report
     bamboo trace      <file.bam> [-- args]    -- simulated trace + critical path (Fig. 6)
     bamboo dump-bench <name>                  -- print a built-in benchmark's source

   [check] and [analyze] exit non-zero when any error-severity
   diagnostic is emitted, so both work as pre-commit gates.

   A file argument of the form bench:<Name> (e.g. bench:KMeans) loads a
   built-in benchmark instead of reading a file; bench:<Name>:seq loads
   its sequential version.

   Bad input ends in one line on stderr and exit 1: frontend errors as
   path:line:col, and a missing file, an unknown benchmark or a program
   failing at run time as "bamboo: <kind>: <message>". *)

open Cmdliner

(* The ':'-separated parts after a "bench:" prefix, if any. *)
let bench_ref path =
  if String.starts_with ~prefix:"bench:" path then
    Some (String.split_on_char ':' (String.sub path 6 (String.length path - 6)))
  else None

let read_source path =
  match bench_ref path with
  | Some [ name ] -> (Bamboo_benchmarks.Registry.find name).b_source
  | Some [ name; "seq" ] -> (Bamboo_benchmarks.Registry.find name).b_seq_source
  | Some _ -> invalid_arg ("bad benchmark reference " ^ path)
  | None ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let load path =
  try Bamboo.compile (read_source path) with
  | Bamboo_frontend.Lexer.Error (pos, msg) ->
      Printf.eprintf "%s:%d:%d: syntax error: %s\n" path pos.line pos.col msg;
      exit 1
  | Bamboo_frontend.Typecheck.Error (pos, msg) ->
      Printf.eprintf "%s:%d:%d: type error: %s\n" path pos.line pos.col msg;
      exit 1

(** [with_args_hint file args f] runs [f]; when a built-in benchmark
    given no arguments fails at run time, the error names the arguments
    the registry runs it with. *)
let with_args_hint file args f =
  try f () with
  | Bamboo.Value.Runtime_error msg as e when args = [] -> (
      match bench_ref file with
      | Some (name :: _) ->
          let b = Bamboo_benchmarks.Registry.find name in
          raise
            (Bamboo.Value.Runtime_error
               (Printf.sprintf "%s (%s takes arguments, e.g. %s -- %s)" msg b.b_name file
                  (String.concat " " b.b_args)))
      | _ -> raise e)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Bamboo source file or bench:<Name>")

let args_arg =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"program arguments")

let cores_arg =
  Arg.(value & opt int 62 & info [ "cores" ] ~doc:"number of cores to target")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"search seed")

(* Domain-count options share one validating converter: 0, negative
   and over-cap values are rejected at parse time with a structured
   message naming the option and the accepted range. *)
let bounded_pos_int ~option ~cap =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 && n <= cap -> Ok n
    | Ok n ->
        Error
          (`Msg
            (Printf.sprintf "%s must be an integer in 1..%d, got %d" option cap n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let default_domains = max 1 (min 8 (Domain.recommended_domain_count ()))

let jobs_arg =
  Arg.(
    value
    & opt (bounded_pos_int ~option:"--jobs" ~cap:64) default_domains
    & info [ "jobs" ]
        ~doc:
          "domains used by the parallel layout-evaluation engine, between 1 and 64 (results \
           are identical for any value; default: recommended domain count, capped at 8)")

let starts_arg =
  Arg.(
    value
    & opt (bounded_pos_int ~option:"--starts" ~cap:1024) 8
    & info [ "starts" ]
        ~doc:
          "independent annealing chains the synthesis search runs (sharing one memo \
           cache), between 1 and 1024; the paper used ~1000 starting points (results are \
           identical for any $(b,--jobs) at a given $(b,--starts))")

let tempering_arg =
  Arg.(
    value & flag
    & info [ "tempering" ]
        ~doc:
          "anneal the DSA survival/continuation probabilities from exploration to \
           exploitation over the iteration budget (helps searches stuck on a secondary \
           attractor)")

let domains_arg =
  Arg.(
    value
    & opt (bounded_pos_int ~option:"--domains" ~cap:64) default_domains
    & info [ "domains" ]
        ~doc:
          "OCaml domains the parallel runtime executes on, between 1 and 64 (per-core \
           schedulers are multiplexed over them; default: recommended domain count, capped \
           at 8)")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("tree", Bamboo.Interp.Tree); ("closure", Bamboo.Interp.Closure) ])
        Bamboo.Interp.Closure
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "interpreter engine for task bodies: $(b,closure) (direct-threaded closures, \
           the default) or $(b,tree) (the tree-walking oracle) — bit-identical on digests \
           and cycle counts")

let machine_of cores = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 cores

(* ------------------------------------------------------------------ *)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Bamboo.Diagnostic.Text); ("json", Bamboo.Diagnostic.Json) ])
        Bamboo.Diagnostic.Text
    & info [ "format" ] ~docv:"FMT" ~doc:"diagnostic output format: $(b,text) or $(b,json)")

(** Compile for the verifier: frontend failures become BAM000 error
    diagnostics rendered in the requested format. *)
let compile_diagnosed file format =
  let frontend_error pos what msg =
    let d =
      Bamboo.Diagnostic.make ~rule:"BAM000" ~severity:Bamboo.Diagnostic.Error ~pos
        ~context:[ ("kind", what) ] "%s: %s" what msg
    in
    print_string (Bamboo.Diagnostic.render ~format ~file [ d ]);
    exit 1
  in
  match Bamboo.compile (read_source file) with
  | prog -> prog
  | exception Bamboo_frontend.Lexer.Error (pos, msg) -> frontend_error pos "syntax error" msg
  | exception Bamboo_frontend.Typecheck.Error (pos, msg) -> frontend_error pos "type error" msg

let deny_warnings_arg =
  Arg.(
    value & flag
    & info [ "deny-warnings" ]
        ~doc:"exit non-zero when any warning is reported, not only on errors")

let effects_arg =
  Arg.(
    value & flag
    & info [ "effects" ]
        ~doc:
          "also report the concurrency-effects analysis: per-task effect sets, sharing \
           evidence and steal-safety interference classes (a $(b,metrics) and an \
           $(b,effects) section in JSON, a trailing summary in text)")

(** Per-rule diagnostic counts as a JSON object, every registered rule
    present (zero included) so the schema is stable. *)
let rule_counts_json ds =
  let rules =
    [ Bamboo.Check.rule_frontend; Bamboo.Check.rule_dead_task;
      Bamboo.Check.rule_stuck_state; Bamboo.Check.rule_flag_hygiene;
      Bamboo.Check.rule_tag_hygiene; Bamboo.Check.rule_unreachable_exit;
      Bamboo.Check.rule_missing_exit; Bamboo.Check.rule_lock_order;
      Bamboo.Check.rule_field_race; Bamboo.Check.rule_guard_race;
      Bamboo.Check.rule_group_split; Bamboo.Check.rule_interference ]
  in
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map
          (fun r ->
            let n = List.length (List.filter (fun d -> d.Bamboo.Diagnostic.rule = r) ds) in
            Printf.sprintf "\"%s\":%d" r n)
          rules))

let cmd_check =
  let run file format deny_warnings effects =
    let prog = compile_diagnosed file format in
    let t0 = Bamboo.Clock.now () in
    let input = Bamboo.Check.prepare prog in
    let ds = Bamboo.Check.run input in
    let wall = Bamboo.Clock.elapsed t0 in
    let extra =
      if effects && format = Bamboo.Diagnostic.Json then
        [
          ( "metrics",
            Printf.sprintf
              "{\"wall_seconds\":%.6f,\"effects_wall_seconds\":%.6f,\"rules\":%s}" wall
              input.Bamboo.Check.effects.Bamboo.Effects.seconds (rule_counts_json ds) );
          ( "effects",
            Bamboo.Check_effects.report_json prog input.Bamboo.Check.effects
              ~lock_groups:input.Bamboo.Check.lock_groups );
        ]
      else []
    in
    print_string (Bamboo.Diagnostic.render ~format ~file ~extra ds);
    if effects && format = Bamboo.Diagnostic.Text then
      print_string
        (Bamboo.Check_effects.report_text prog input.Bamboo.Check.effects
           ~lock_groups:input.Bamboo.Check.lock_groups);
    if
      Bamboo.Diagnostic.has_errors ds
      || (deny_warnings && Bamboo.Diagnostic.has_warnings ds)
    then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "run the static verifier (dead tasks, stuck states, flag/tag hygiene, exit \
          reachability, lock-group audit, races, interference) and print diagnostics")
    Term.(const run $ file_arg $ format_arg $ deny_warnings_arg $ effects_arg)

let cmd_analyze =
  let run file =
    let prog = load file in
    let an = Bamboo.analyse prog in
    Printf.printf "%d classes, %d tasks, %d allocation sites, %d tag types\n"
      (Array.length prog.classes) (Array.length prog.tasks) (Array.length prog.sites)
      (Array.length prog.tag_types);
    let shared = ref 0 in
    Array.iteri
      (fun c _ -> if Bamboo.Ir.uses_group_lock an.lock_groups c then incr shared)
      prog.classes;
    Printf.printf "%d class(es) in shared lock groups\n" !shared;
    let ds = Bamboo.check prog an in
    print_string (Bamboo.Diagnostic.render_text ~file ds);
    if Bamboo.Diagnostic.has_errors ds then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "parse, type check, run the static analyses, and report diagnostics through the \
          verifier engine")
    Term.(const run $ file_arg)

let cmd_astg =
  let run file cls =
    let prog = load file in
    let cid =
      match Bamboo.Ir.find_class prog cls with
      | Some c -> c
      | None ->
          Printf.eprintf "unknown class %s\n" cls;
          exit 1
    in
    let a = Bamboo.Astg.of_class prog cid in
    Printf.printf "class %s: %d abstract states\n" cls (List.length a.a_states);
    List.iter
      (fun (s, sites) ->
        Printf.printf "  alloc %s (sites %s)\n"
          (Bamboo.Astg.string_of_astate prog cid s)
          (String.concat "," (List.map string_of_int sites)))
      a.a_alloc;
    List.iter
      (fun (tr : Bamboo.Astg.transition) ->
        Printf.printf "  %s --%s/exit%d--> %s\n"
          (Bamboo.Astg.string_of_astate prog cid tr.tr_src)
          prog.tasks.(tr.tr_task).t_name tr.tr_exit
          (Bamboo.Astg.string_of_astate prog cid tr.tr_dst))
      a.a_transitions
  in
  let cls_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS") in
  Cmd.v (Cmd.info "astg" ~doc:"print the abstract state transition graph of a class")
    Term.(const run $ file_arg $ cls_arg)

let cmd_cstg =
  let run file =
    let prog = load file in
    let an = Bamboo.analyse prog in
    print_string (Bamboo.Dot.to_string (Bamboo.Cstg.to_dot an.cstg))
  in
  Cmd.v (Cmd.info "cstg" ~doc:"emit the combined state transition graph as dot (paper Fig. 3)")
    Term.(const run $ file_arg)

let cmd_taskflow =
  let run file =
    let prog = load file in
    let an = Bamboo.analyse prog in
    print_string (Bamboo.Dot.to_string (Bamboo.Cstg.task_flow_dot an.cstg))
  in
  Cmd.v (Cmd.info "taskflow" ~doc:"emit the task-flow graph as dot (paper Fig. 8)")
    Term.(const run $ file_arg)

let cmd_profile =
  let run file args engine =
    with_args_hint file args @@ fun () ->
    Bamboo.Interp.engine := engine;
    let prog = load file in
    let prof, r = Bamboo.Profile.collect ~args prog in
    Printf.printf "single-core execution: %d cycles, %d invocations\n%s" r.r_total_cycles
      r.r_invocations
      (if r.r_output = "" then "" else "output:\n" ^ r.r_output);
    Format.printf "%a@?" (fun fmt () -> Bamboo.Profile.pp fmt prog prof) ()
  in
  Cmd.v (Cmd.info "profile" ~doc:"run on one core and print the profile statistics")
    Term.(const run $ file_arg $ args_arg $ engine_arg)

let synthesize file args cores seed jobs starts tempering =
  let prog = load file in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let o = Bamboo.synthesize ~seed ~jobs ~starts ~tempering prog an prof (machine_of cores) in
  (prog, an, o)

let cmd_synth =
  let run file args cores seed jobs starts tempering engine =
    with_args_hint file args @@ fun () ->
    Bamboo.Interp.engine := engine;
    let prog, _, (o : Bamboo.Dsa.outcome) =
      synthesize file args cores seed jobs starts tempering
    in
    Printf.printf
      "estimated %d cycles; %d layouts evaluated (+%d cache hits, %d pruned) over %d \
       start(s) (%d restarts) in %.1f s (%.0f evals/s, %.3g events/s, jobs=%d)\n"
      o.best_cycles o.evaluated o.cache_hits o.pruned o.starts o.restarts o.seconds
      (if o.seconds > 0.0 then float_of_int o.evaluated /. o.seconds else 0.0)
      (if o.seconds > 0.0 then float_of_int o.sim_events /. o.seconds else 0.0)
      jobs;
    print_string (Bamboo.Layout.to_string prog o.best)
  in
  Cmd.v (Cmd.info "synth" ~doc:"synthesize an optimized layout (multi-start candidates + DSA)")
    Term.(
      const run $ file_arg $ args_arg $ cores_arg $ seed_arg $ jobs_arg $ starts_arg
      $ tempering_arg $ engine_arg)

let cmd_run =
  let run file args cores seed jobs starts tempering engine digest =
    with_args_hint file args @@ fun () ->
    Bamboo.Interp.engine := engine;
    let prog, an, o = synthesize file args cores seed jobs starts tempering in
    let r = Bamboo.execute ~args prog an o.best in
    print_string r.r_output;
    Printf.printf "%d cycles on %d cores (%d invocations, %d messages, %d failed locks)\n"
      r.r_total_cycles cores r.r_invocations r.r_messages r.r_failed_locks;
    if digest then
      Printf.printf "digest: %s\n"
        (Bamboo.Canon.digest prog ~output:r.r_output ~objects:r.r_objects)
  in
  let digest_arg =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "also print the canonical output digest (comparable with $(b,bamboo exec \
             --digest-only))")
  in
  Cmd.v (Cmd.info "run" ~doc:"synthesize a layout and execute the program on it")
    Term.(
      const run $ file_arg $ args_arg $ cores_arg $ seed_arg $ jobs_arg $ starts_arg
      $ tempering_arg $ engine_arg $ digest_arg)

let cmd_exec =
  let run file args cores domains seed jobs starts tempering layout_kind exec_reference
      engine digest_only canon sanitize schedule =
    with_args_hint file args @@ fun () ->
    Bamboo.Interp.engine := engine;
    let prog = load file in
    let an = Bamboo.analyse prog in
    let layout =
      match layout_kind with
      | `Spread -> Bamboo.Exec.spread_layout prog (machine_of cores)
      | `Synth ->
          let prof = Bamboo.profile ~args prog in
          (Bamboo.synthesize ~seed ~jobs ~starts ~tempering prog an prof (machine_of cores))
            .best
    in
    let print ~output ~objects ~digest summary =
      if digest_only then print_endline digest
      else if canon then print_endline (Bamboo.Canon.canonical prog ~output ~objects)
      else begin
        print_string output;
        summary ()
      end
    in
    if exec_reference && not sanitize then begin
      let r = Bamboo.execute ~args prog an layout in
      let digest = Bamboo.Canon.digest prog ~output:r.r_output ~objects:r.r_objects in
      print ~output:r.r_output ~objects:r.r_objects ~digest (fun () ->
          Printf.printf
            "sequential runtime on %d cores (%d invocations, %d cycles, %d messages, %d \
             failed locks)\ndigest: %s\n"
            cores r.r_invocations r.r_total_cycles r.r_messages r.r_failed_locks digest)
    end
    else begin
      let sanitize = if sanitize then Some (Bamboo.Effects.analyse prog an.astgs) else None in
      let r =
        Bamboo.execute_parallel ~args ~domains ~seed ?sanitize ~schedule prog an layout
      in
      print ~output:r.x_output ~objects:r.x_objects ~digest:r.x_digest (fun () ->
          Printf.printf
            "%.3f s wall on %d domains (%d cores; %d invocations, %d cycles charged, %d \
             messages, %d lock retries)\ndigest: %s\n"
            r.x_wall_seconds r.x_domains cores r.x_invocations r.x_cycles r.x_messages
            r.x_lock_retries r.x_digest;
          if schedule = Bamboo.Exec.Steal then
            Printf.printf
              "steals: %d of %d attempts (%d lost races), %d invocations ran off-home, %d \
               idle polls\n"
              r.x_steals r.x_steal_attempts r.x_steal_aborts r.x_stolen_invocations
              r.x_idle_polls);
      match (sanitize, r.x_violations) with
      | Some _, [] -> if not digest_only && not canon then print_endline "sanitizer: clean"
      | Some _, vs ->
          List.iter (fun v -> Printf.eprintf "sanitizer: %s\n" v) vs;
          exit 1
      | None, _ -> ()
    end
  in
  let layout_arg =
    Arg.(
      value
      & opt (enum [ ("spread", `Spread); ("synth", `Synth) ]) `Spread
      & info [ "layout" ]
          ~docv:"KIND"
          ~doc:
            "task layout: $(b,spread) replicates every task over all cores \
             (restriction-permitting), $(b,synth) runs full layout synthesis first")
  in
  let exec_reference_arg =
    Arg.(
      value & flag
      & info [ "exec-reference" ]
          ~doc:
            "run on the sequential deterministic runtime (the equivalence oracle) instead \
             of the parallel backend; ignored under $(b,--sanitize)")
  in
  let digest_only_arg =
    Arg.(
      value & flag
      & info [ "digest-only" ] ~doc:"print only the canonical output digest")
  in
  let canon_arg =
    Arg.(
      value & flag
      & info [ "canon" ]
          ~doc:
            "print the field-level canonical form instead of the output (for diffing \
             digest mismatches)")
  in
  let sanitize_arg =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "run under the dynamic lockset sanitizer: every object access is checked \
             against the static effect analysis' predictions and an Eraser-style shadow \
             lockset; any violation is printed and the exit status is non-zero")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (enum [ ("static", Bamboo.Exec.Static); ("steal", Bamboo.Exec.Steal) ])
          Bamboo.Exec.Static
      & info [ "schedule" ]
          ~docv:"MODE"
          ~doc:
            "work placement: $(b,static) runs every invocation on the core static routing \
             assembled it on; $(b,steal) additionally lets idle domains steal invocations \
             of BAM011 steal-safe tasks from busy cores' Chase-Lev deques (canonical \
             digests are identical in both modes)")
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "execute the program for real on OCaml 5 domains (true many-core execution; \
          compare against $(b,bamboo run) with $(b,--exec-reference) or $(b,--digest-only))")
    Term.(
      const run $ file_arg $ args_arg $ cores_arg $ domains_arg $ seed_arg $ jobs_arg
      $ starts_arg $ tempering_arg $ layout_arg $ exec_reference_arg $ engine_arg
      $ digest_only_arg $ canon_arg $ sanitize_arg $ schedule_arg)

(* A request class on the command line: NAME=ARG,ARG,... or
   NAME*WEIGHT=ARG,ARG,... (weight defaults to 1). *)
let class_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg (Printf.sprintf "bad class spec %S, want NAME[*W]=a,b,c" s))
    | Some eq ->
        let head = String.sub s 0 eq in
        let argstr = String.sub s (eq + 1) (String.length s - eq - 1) in
        let args = if argstr = "" then [] else String.split_on_char ',' argstr in
        let name, weight =
          match String.index_opt head '*' with
          | None -> (head, Ok 1)
          | Some st ->
              ( String.sub head 0 st,
                match int_of_string_opt (String.sub head (st + 1) (String.length head - st - 1)) with
                | Some w when w >= 1 -> Ok w
                | _ -> Error (`Msg (Printf.sprintf "bad class weight in %S" s)) )
        in
        if name = "" then Error (`Msg (Printf.sprintf "empty class name in %S" s))
        else
          Result.map
            (fun w -> { Bamboo.Serve.rc_name = name; rc_args = args; rc_weight = w })
            weight
  in
  let print fmt (c : Bamboo.Serve.request_class) =
    Format.fprintf fmt "%s*%d=%s" c.rc_name c.rc_weight (String.concat "," c.rc_args)
  in
  Arg.conv (parse, print)

let cmd_serve =
  let run file args cores domains seed jobs starts tempering layout_kind engine schedule
      rate duration arrivals admission queue inflight check classes =
    with_args_hint file args @@ fun () ->
    Bamboo.Interp.engine := engine;
    let prog = load file in
    let an = Bamboo.analyse prog in
    let layout =
      match layout_kind with
      | `Spread -> Bamboo.Exec.spread_layout prog (machine_of cores)
      | `Synth ->
          let prof = Bamboo.profile ~args prog in
          (Bamboo.synthesize ~seed ~jobs ~starts ~tempering prog an prof (machine_of cores))
            .best
    in
    let classes =
      match classes with
      | [] -> [ { Bamboo.Serve.rc_name = "default"; rc_args = args; rc_weight = 1 } ]
      | cs -> cs
    in
    let inflight = if inflight = 0 then 2 * domains else inflight in
    let config =
      {
        Bamboo.Serve.sv_rate = rate;
        sv_duration = duration;
        sv_arrivals = arrivals;
        sv_admission = admission;
        sv_classes = classes;
        sv_seed = seed;
        sv_domains = domains;
        sv_schedule = schedule;
        sv_queue = queue;
        sv_inflight = inflight;
        sv_check = check;
        sv_keep_output = false;
      }
    in
    let r = Bamboo.serve ~config prog an layout in
    let ms ns = float_of_int ns /. 1e6 in
    Printf.printf
      "serve %s: rate %.1f req/s (%s), %.2f s window, %d domains (%d cores), schedule %s, \
       admission %s, queue %d, inflight %d\n"
      file rate
      (match arrivals with Bamboo.Serve.Poisson -> "poisson" | Uniform -> "uniform")
      duration domains cores
      (match schedule with Bamboo.Exec.Static -> "static" | Steal -> "steal")
      (match admission with Bamboo.Serve.Block -> "block" | Shed -> "shed")
      queue inflight;
    Printf.printf
      "scheduled %d  served %d  dropped %d (%.1f%%)  wall %.2f s  sustained %.1f req/s \
       (offered %.1f)\n"
      r.rp_scheduled r.rp_served r.rp_dropped
      (if r.rp_scheduled = 0 then 0.0
       else 100.0 *. float_of_int r.rp_dropped /. float_of_int r.rp_scheduled)
      r.rp_wall r.rp_sustained r.rp_offered;
    List.iter
      (fun (c : Bamboo.Serve.class_report) ->
        Printf.printf
          "  class %-12s served %6d  dropped %5d | p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f \
           ms  max %8.3f ms  mean %8.3f ms\n"
          c.cr_name c.cr_served c.cr_dropped (ms c.cr_p50_ns) (ms c.cr_p95_ns)
          (ms c.cr_p99_ns) (ms c.cr_max_ns) (c.cr_mean_ns /. 1e6))
      r.rp_classes;
    if r.rp_stall_seconds > 0.0 then
      Printf.printf "generator stalled %.3f s waiting for admission\n" r.rp_stall_seconds;
    if check then begin
      Printf.printf "digest checks: %d mismatches over %d served\n" r.rp_mismatches
        r.rp_served;
      if r.rp_mismatches > 0 then exit 1
    end
  in
  let layout_arg =
    Arg.(
      value
      & opt (enum [ ("spread", `Spread); ("synth", `Synth) ]) `Spread
      & info [ "layout" ] ~docv:"KIND"
          ~doc:
            "task layout: $(b,spread) replicates every task over all cores \
             (restriction-permitting), $(b,synth) runs full layout synthesis first")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (enum [ ("static", Bamboo.Exec.Static); ("steal", Bamboo.Exec.Steal) ])
          Bamboo.Exec.Static
      & info [ "schedule" ] ~docv:"MODE"
          ~doc:"work placement while serving: $(b,static) or $(b,steal) (as in $(b,exec))")
  in
  let rate_arg =
    Arg.(
      value & opt float 100.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"offered load in requests per second (open loop: arrivals fire on schedule)")
  in
  let duration_arg =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"S"
          ~doc:
            "length of the generation window in seconds; the run then drains every \
             admitted request before reporting")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt (enum [ ("poisson", Bamboo.Serve.Poisson); ("uniform", Bamboo.Serve.Uniform) ])
          Bamboo.Serve.Poisson
      & info [ "arrivals" ] ~docv:"DIST"
          ~doc:
            "inter-arrival distribution: $(b,poisson) (exponential gaps) or $(b,uniform) \
             (constant gaps); both derive deterministically from $(b,--seed)")
  in
  let admission_arg =
    Arg.(
      value
      & opt (enum [ ("block", Bamboo.Serve.Block); ("shed", Bamboo.Serve.Shed) ])
          Bamboo.Serve.Shed
      & info [ "admission" ] ~docv:"MODE"
          ~doc:
            "backpressure when the waiting room is full: $(b,block) stalls the generator, \
             $(b,shed) drops the arrival (counted per class)")
  in
  let queue_arg =
    Arg.(
      value
      & opt (bounded_pos_int ~option:"--queue" ~cap:1_000_000) 64
      & info [ "queue" ] ~docv:"N" ~doc:"admission waiting-room capacity (bounded mailbox)")
  in
  let inflight_arg =
    Arg.(
      value & opt int 0
      & info [ "inflight" ] ~docv:"N"
          ~doc:"max requests executing concurrently (0 = 2 x domains)")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "closed-loop equivalence mode: one request in flight at a time, each \
             digest-checked against the sequential runtime (exit non-zero on any mismatch)")
  in
  let classes_arg =
    Arg.(
      value & opt_all class_conv []
      & info [ "class" ] ~docv:"NAME[*W]=A,B,C"
          ~doc:
            "a request class: name, optional integer weight, and the startup arguments its \
             requests are injected with (repeatable; default: one class $(b,default) using \
             the positional arguments)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "serve a deterministic open-loop request stream on the parallel backend and \
          report sustained throughput plus per-class p50/p95/p99 latency")
    Term.(
      const run $ file_arg $ args_arg $ cores_arg $ domains_arg $ seed_arg $ jobs_arg
      $ starts_arg $ tempering_arg $ layout_arg $ engine_arg $ schedule_arg $ rate_arg
      $ duration_arg $ arrivals_arg $ admission_arg $ queue_arg $ inflight_arg $ check_arg
      $ classes_arg)

let cmd_trace =
  let run file args cores seed jobs starts tempering =
    with_args_hint file args @@ fun () ->
    let prog, _, o = synthesize file args cores seed jobs starts tempering in
    let prof = Bamboo.profile ~args prog in
    let sim = Bamboo.Schedsim.simulate prog prof o.best in
    let cp = Bamboo.Critpath.analyse sim in
    print_string (Bamboo.Critpath.to_string prog sim cp)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"print the simulated execution trace and critical path (paper Fig. 6)")
    Term.(
      const run $ file_arg $ args_arg $ cores_arg $ seed_arg $ jobs_arg $ starts_arg
      $ tempering_arg)

let cmd_dump =
  let run name seq =
    let b = Bamboo_benchmarks.Registry.find name in
    print_string (if seq then b.b_seq_source else b.b_source)
  in
  let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  let seq_arg = Arg.(value & flag & info [ "seq" ] ~doc:"sequential version") in
  Cmd.v (Cmd.info "dump-bench" ~doc:"print a built-in benchmark's Bamboo source")
    Term.(const run $ name_arg $ seq_arg)

let () =
  let doc = "data-centric, object-oriented many-core compiler (Bamboo, PLDI 2010)" in
  let info = Cmd.info "bamboo" ~version:"1.0.0" ~doc in
  let fail kind msg =
    Printf.eprintf "bamboo: %s: %s\n" kind msg;
    exit 1
  in
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [ cmd_check; cmd_analyze; cmd_astg; cmd_cstg; cmd_taskflow; cmd_profile; cmd_synth;
           cmd_run; cmd_exec; cmd_serve; cmd_trace; cmd_dump ])
  with
  | code -> exit code
  | exception Bamboo.Value.Runtime_error msg -> fail "runtime error" msg
  | exception Invalid_argument msg -> fail "invalid argument" msg
  | exception Sys_error msg -> fail "system error" msg
  | exception e ->
      (* Anything else is a bug: report it as cmdliner would. *)
      Printf.eprintf "bamboo: internal error, uncaught exception:\n%s\n" (Printexc.to_string e);
      exit Cmd.Exit.internal_error
