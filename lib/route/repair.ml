module Chip = Mfb_place.Chip

(* Row-major comparison: y is the major axis, matching the (x, y)
   tuple layout of every grid cell in the codebase. *)
let row_major_compare (x1, y1) (x2, y2) =
  let c = Int.compare y1 y2 in
  if c <> 0 then c else Int.compare x1 x2

let owner (chip : Chip.t) (cx, cy) =
  let n = Array.length chip.components in
  let rec scan i =
    if i >= n then None
    else
      let x, y, w, h = Chip.footprint chip i in
      if cx >= x && cx < x + w && cy >= y && cy < y + h then Some i
      else scan (i + 1)
  in
  scan 0

let cells (chip : Chip.t) =
  let acc = ref [] in
  for y = chip.height - 1 downto 0 do
    for x = chip.width - 1 downto 0 do
      if owner chip (x, y) = None then acc := (x, y) :: !acc
    done
  done;
  !acc

type outcome = {
  defect : int * int;
  affected : int;
  repaired : int;
  survived : bool;
}

type injection =
  | Channel of outcome
  | Component_fault of { component : int }

type rerouted =
  | In_window of Routed.task
  | Delayed of Routed.task
  | Unroutable

let delay_budget = 16.

(* Conflict-aware A* for a task of [kind] at postponement [delay] on the
   defect-masked grid; commits and returns the task on success. *)
let route_at ?field_cache grid ~tc ~is_defect kind tr ~delay =
  let srcs, dsts = Routed.endpoints grid kind tr in
  let usable xy =
    (not (is_defect xy)) && Routed.usable grid tr ~delay ~src_ports:srcs xy
  in
  Option.map
    (fun path -> Routed.commit_task grid ~tc kind tr ~path ~delay)
    (Astar.search_multi ?field_cache grid ~srcs ~dsts ~usable
       ~use_weights:true)

let reroute grid ~tc ~is_defect kind tr ~delay =
  let field_cache = Hashtbl.create 4 in
  let route_at = route_at ~field_cache grid ~tc ~is_defect kind tr in
  match route_at ~delay with
  | Some t -> In_window t
  | None ->
    match
      List.find_map
        (fun d -> if d > delay then route_at ~delay:d else None)
        Routed.delay_candidates
    with
    | Some t -> Delayed t
    | None ->
      (* Spatially avoid the defects, then postpone until the whole path
         settles conflict-free — the router's own fallback, with the
         defect mask added and the delay budget enforced. *)
      let srcs, dsts = Routed.endpoints grid kind tr in
      let usable xy = (not (Rgrid.blocked grid xy)) && not (is_defect xy) in
      (match
         Astar.search_multi ~field_cache grid ~srcs ~dsts ~usable
           ~use_weights:false
       with
       | None -> Unroutable
       | Some path ->
         (match Routed.settle_delay grid tr ~src_ports:srcs path with
          | Some d when d <= delay_budget ->
            Delayed
              (Routed.commit_task grid ~tc kind tr ~path
                 ~delay:(Float.max d delay))
          | Some _ | None -> Unroutable))

let inject_channel ~we ~tc chip (routing : Routed.result) ~defect =
  let grid = Rgrid.create ~we chip in
  let healthy, affected =
    List.partition
      (fun (task : Routed.task) -> not (List.mem defect task.path))
      routing.tasks
  in
  (* Healthy tasks keep their paths; their occupations constrain the
     repair. *)
  List.iter (fun task -> Routed.commit grid ~tc task) healthy;
  let repaired =
    List.filter
      (fun (task : Routed.task) ->
        Option.is_some
          (route_at grid ~tc ~is_defect:(( = ) defect) task.kind
             task.transport ~delay:task.delay))
      affected
  in
  {
    defect;
    affected = List.length affected;
    repaired = List.length repaired;
    survived = List.length repaired = List.length affected;
  }

let inject ~we ~tc chip (routing : Routed.result) ~defect =
  match owner chip defect with
  | Some component -> Component_fault { component }
  | None -> Channel (inject_channel ~we ~tc chip routing ~defect)

type yield_report = {
  cells_tested : int;
  survived : int;
  yield : float;
  worst : outcome option;
}

let single_defect_yield ~we ~tc chip (routing : Routed.result) =
  (* Used cells in the canonical row-major order, so [worst] is the
     first failing cell of a stable enumeration. *)
  let cells =
    List.sort row_major_compare (Rgrid.used_cells routing.grid)
  in
  let outcomes =
    List.map
      (fun defect -> inject_channel ~we ~tc chip routing ~defect)
      cells
  in
  let survived =
    List.length (List.filter (fun (o : outcome) -> o.survived) outcomes)
  in
  {
    cells_tested = List.length cells;
    survived;
    yield =
      (if cells = [] then 1.0
       else float_of_int survived /. float_of_int (List.length cells));
    worst = List.find_opt (fun (o : outcome) -> not o.survived) outcomes;
  }
