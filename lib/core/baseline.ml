let run ?(config = Config.default) ?(route_io = false) ?(flow_name = "ba")
    graph allocation =
  let module Telemetry = Mfb_util.Telemetry in
  Config.validate config;
  let started_wall = Unix.gettimeofday () in
  let started = Sys.time () in
  let synthesize () =
    let sched =
      Telemetry.span ~cat:"stage" "schedule" (fun () ->
          Mfb_schedule.Baseline_scheduler.schedule ~tc:config.tc graph
            allocation)
    in
    let nets = Mfb_place.Net.of_schedule sched in
    (* The baseline placement corrects plain wirelength only. *)
    let weighted = Mfb_place.Energy.uniform nets in
    let chip =
      Telemetry.span ~cat:"stage" "place" (fun () ->
          Mfb_place.Greedy_place.place ~nets:weighted sched.components)
    in
    let routing =
      Telemetry.span ~cat:"stage" "route" (fun () ->
          Mfb_route.Baseline_router.route ~route_io ~we:config.we
            ~tc:config.tc chip sched)
    in
    (sched, chip, routing)
  in
  let (sched, chip, routing), metrics =
    Telemetry.with_scope
      (Printf.sprintf "run:%s/%s"
         (Mfb_bioassay.Seq_graph.name graph)
         flow_name)
      synthesize
  in
  let final_sched = Mfb_route.Routed.retime sched routing in
  Result.of_stages
    ~benchmark:(Mfb_bioassay.Seq_graph.name graph)
    ~flow:flow_name
    ~cpu_time:(Sys.time () -. started)
    ~wall_time:(Unix.gettimeofday () -. started_wall)
    ~metrics
    ~schedule:final_sched ~chip ~routing ()
