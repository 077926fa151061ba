let log_src = Logs.Src.create "mfb.flow" ~doc:"DCSA synthesis flow"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Telemetry = Mfb_util.Telemetry

type scheduler = [ `Dcsa | `Earliest_ready ]

type placement_energy = [ `Connection_priority | `Uniform ]

type placer = [ `Annealing | `Force_directed ]

type router = [ `Sequential | `Negotiated ]

let run ?(config = Config.default) ?(scheduler = `Dcsa)
    ?(placement_energy = `Connection_priority) ?(placer = `Annealing)
    ?(router = `Sequential) ?(weight_update = true) ?(route_io = false)
    ?(jobs = 1) ?(flow_name = "ours") graph allocation =
  Config.validate config;
  if jobs < 1 then invalid_arg "Flow.run: jobs < 1";
  if config.backend <> Mfb_schedule.Portfolio.Heuristic && scheduler <> `Dcsa
  then
    invalid_arg
      "Flow.run: exact/portfolio backends only replace the DCSA scheduler";
  let started_wall = Unix.gettimeofday () and started_cpu = Sys.time () in
  let stage_times = ref [] in
  (* [timed name f] runs stage [f], logs and records wall vs CPU time.
     Sys.time sums the CPU of every domain, so under parallel sections
     cpu_s > wall_s and the gap is the harvested speedup. *)
  let timed name f =
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    let v = Telemetry.span ~cat:"stage" name f in
    let wall_s = Unix.gettimeofday () -. w0 and cpu_s = Sys.time () -. c0 in
    stage_times :=
      { Result.stage = name; wall_s; cpu_s } :: !stage_times;
    Log.debug (fun m ->
        m "%s: %s finished in %.1f ms wall (%.1f ms cpu)"
          (Mfb_bioassay.Seq_graph.name graph)
          name (1000. *. wall_s) (1000. *. cpu_s));
    v
  in
  let synthesize () =
  (* Stage 1: binding and scheduling (paper Alg. 1), or the exact /
     portfolio backend when the config asks for one. *)
  let sched, decision =
    timed "schedule" (fun () ->
        let heuristic =
          match scheduler with
          | `Dcsa -> Mfb_schedule.Dcsa_scheduler.schedule
          | `Earliest_ready -> Mfb_schedule.Baseline_scheduler.schedule
        in
        Mfb_schedule.Portfolio.schedule ~heuristic ~fuel:config.exact_fuel
          ~jobs ~tc:config.tc config.backend graph allocation)
  in
  (* Stage 2: placement (paper Alg. 2, lines 1-8). *)
  let nets = Mfb_place.Net.of_schedule sched in
  let weighted =
    match placement_energy with
    | `Connection_priority ->
      Mfb_place.Energy.weigh ~beta:config.beta ~gamma:config.gamma nets
    | `Uniform -> Mfb_place.Energy.uniform nets
  in
  let chip =
    timed "place" (fun () ->
        match placer with
        | `Annealing ->
          let rng = Mfb_util.Rng.create config.seed in
          (Mfb_place.Annealer.anneal_multi ~params:config.sa ~jobs
             ~restarts:config.sa_restarts ~rng ~nets:weighted
             sched.components)
            .chip
        | `Force_directed ->
          (Mfb_place.Force_place.place ~nets:weighted sched.components).chip)
  in
  (* Stage 3: conflict-aware routing (paper Alg. 2, lines 9-18). *)
  let routing =
    timed "route" (fun () ->
        match router with
        | `Sequential ->
          Mfb_route.Router.route ~weight_update ~route_io ~we:config.we
            ~tc:config.tc chip sched
        | `Negotiated ->
          Mfb_route.Negotiated_router.route ~weight_update ~route_io
            ~we:config.we ~tc:config.tc chip sched)
  in
  Log.info (fun m ->
      m "%s/%s: %d transports, %d unresolved, %.0f mm of channels"
        (Mfb_bioassay.Seq_graph.name graph)
        flow_name
        (List.length sched.transports)
        routing.unresolved routing.total_channel_length_mm);
  (* Any routing postponements flow back into the schedule. *)
  let final_sched = Mfb_route.Routed.retime sched routing in
  (final_sched, chip, routing, decision)
  in
  (* The whole run executes under a telemetry scope, so the metrics
     attached to the result cover exactly this run's collectors (its
     pool tasks included) and nothing from concurrent suite instances. *)
  let (final_sched, chip, routing, decision), metrics =
    Telemetry.with_scope
      (Printf.sprintf "run:%s/%s" (Mfb_bioassay.Seq_graph.name graph)
         flow_name)
      synthesize
  in
  Result.of_stages
    ~benchmark:(Mfb_bioassay.Seq_graph.name graph)
    ~flow:flow_name
    ~cpu_time:(Sys.time () -. started_cpu)
    ~wall_time:(Unix.gettimeofday () -. started_wall)
    ~stage_times:(List.rev !stage_times)
    ~metrics
    ?decision
    ~schedule:final_sched ~chip ~routing ()
