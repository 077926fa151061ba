module Interval = Mfb_util.Interval
module Telemetry = Mfb_util.Telemetry
module Types = Mfb_schedule.Types

(* Exchange rate between postponing a transport and lengthening its
   channel: one second of delay costs as much as one fresh routing cell
   (whose weighted cost is [1 + w_e]).  A short wait on an existing
   channel then beats a long detour onto fresh cells, which is how the
   proposed flow keeps both execution time and channel length low. *)
let delay_cost_per_second = 8.

(* Route one transport with the conflict-aware weighted A*, choosing the
   cheapest (path cost + delay penalty) over a few postponement
   candidates. *)
let route_task ~weight_update grid ~tc (tr : Types.transport) =
  let srcs, dsts = Routed.endpoints grid Routed.Transport tr in
  let effort = Astar.stats () in
  (* All delay candidates aim at the same destination ports, so they
     share one heuristic-field build per distinct usable-set. *)
  let field_cache = Hashtbl.create 4 in
  let attempt delay =
    let usable xy = Routed.usable grid tr ~delay ~src_ports:srcs xy in
    Astar.search_multi ~stats:effort ~field_cache grid ~srcs ~dsts ~usable
      ~use_weights:weight_update
  in
  let score delay path =
    Astar.path_cost grid ~use_weights:weight_update path
    +. (delay_cost_per_second *. delay)
  in
  let best =
    List.fold_left
      (fun best delay ->
        match attempt delay with
        | None -> best
        | Some path ->
          let s = score delay path in
          (match best with
           | Some (_, _, s') when s' <= s -> best
           | Some _ | None -> Some (path, delay, s)))
      None Routed.delay_candidates
  in
  let finish path delay unresolved =
    let task =
      Routed.commit_task ~weight_update grid ~tc Routed.Transport tr ~path
        ~delay
    in
    Telemetry.sample ~cat:"route" "astar.task_pops"
      (float_of_int effort.pops);
    if delay > 0. then Telemetry.observe ~cat:"route" "task.delay" delay;
    Telemetry.observe ~cat:"route" "task.path_cells"
      (float_of_int (List.length path));
    (task, unresolved)
  in
  match best with
  | Some (path, delay, _) -> finish path delay false
  | None ->
    (* Spatially blocked or hopelessly congested: fall back to the
       shortest obstacle-avoiding path and postpone along it. *)
    Telemetry.incr ~cat:"route" "conflict.rejections";
    let usable xy = not (Rgrid.blocked grid xy) in
    let path =
      match
        Astar.search_multi ~stats:effort ~field_cache grid ~srcs ~dsts
          ~usable ~use_weights:false
      with
      | Some p -> p
      | None -> [ List.hd srcs; List.hd dsts ] (* degenerate fallback *)
    in
    (match Routed.settle_delay grid tr ~src_ports:srcs path with
     | Some delay -> finish path delay false
     | None ->
       Telemetry.incr ~cat:"route" "unresolved";
       finish path 0. true)

let route ?(weight_update = true) ?(route_io = false) ~we ~tc chip
    (sched : Types.t) =
  if tc <= 0. then invalid_arg "Router.route: tc must be positive";
  let grid = Rgrid.create ~we chip in
  let tasks, unresolved =
    List.fold_left
      (fun (tasks, unresolved) (tr : Types.transport) ->
        let task, failed =
          Telemetry.span ~cat:"route" "transport"
            ~args:
              [ ("edge_src", Telemetry.Int (fst tr.edge));
                ("edge_dst", Telemetry.Int (snd tr.edge));
                ("from", Telemetry.Int tr.src);
                ("to", Telemetry.Int tr.dst) ]
            (fun () -> route_task ~weight_update grid ~tc tr)
        in
        (task :: tasks, if failed then unresolved + 1 else unresolved))
      ([], 0) (Routed.commit_order sched)
  in
  Io_router.finalize ~weight_update ~route_io grid ~tc sched tasks ~unresolved
