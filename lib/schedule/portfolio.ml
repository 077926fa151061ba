module Json = Mfb_util.Json
module Pool = Mfb_util.Pool

type backend = Heuristic | Exact | Portfolio

let backend_to_string = function
  | Heuristic -> "heuristic"
  | Exact -> "exact"
  | Portfolio -> "portfolio"

let backend_of_string = function
  | "heuristic" -> Some Heuristic
  | "exact" -> Some Exact
  | "portfolio" -> Some Portfolio
  | _ -> None

let all_backends = [ Heuristic; Exact; Portfolio ]

type arm = Heuristic_arm | Exact_arm

let arm_to_string = function
  | Heuristic_arm -> "heuristic"
  | Exact_arm -> "exact"

type decision = {
  backend : backend;
  selected : arm;
  optimal : bool;
  truncated : bool;
  explored : int;
  fuel : int;
  ticks : int;
  heuristic_makespan : float;
  makespan : float;
}

let gap_percent d =
  if d.heuristic_makespan <= 0. then 0.
  else (d.heuristic_makespan -. d.makespan) /. d.heuristic_makespan *. 100.

let decision_to_json d =
  Json.Obj
    [
      ("name", Json.String (backend_to_string d.backend));
      ("selected", Json.String (arm_to_string d.selected));
      ("optimal", Json.Bool d.optimal);
      ("truncated", Json.Bool d.truncated);
      ("explored", Json.Int d.explored);
      ("fuel", Json.Int d.fuel);
      ("ticks", Json.Int d.ticks);
      ("heuristic_makespan_s", Json.Float d.heuristic_makespan);
      ("makespan_s", Json.Float d.makespan);
      ("gap_percent", Json.Float (gap_percent d));
    ]

let exact ?(fuel = Exact.default_fuel) ~tc graph allocation =
  let e = Exact.schedule ~fuel ~tc graph allocation in
  ( e.Exact.schedule,
    {
      backend = Exact;
      selected = Exact_arm;
      optimal = e.optimal;
      truncated = e.truncated;
      explored = e.explored;
      fuel = e.fuel;
      ticks = e.explored;
      heuristic_makespan = e.heuristic_makespan;
      makespan = e.schedule.makespan;
    } )

(* Both arms run to completion under their own budgets: the heuristic
   arm is a single list-scheduling pass, the exact arm is bounded by its
   fuel — that budget *is* the cooperative cancellation, so no arm is
   ever interrupted at a wall-clock-dependent point.  "First finisher"
   is decided on virtual ticks (heuristic: one per scheduled operation;
   exact: one per expanded node), never on elapsed time, so the winner —
   and the returned schedule — is a pure function of
   (graph, allocation, tc, fuel), identical for every [jobs] value. *)
let race ?(fuel = Exact.default_fuel) ?(jobs = 1) ~tc graph allocation =
  let n_ops = Mfb_bioassay.Seq_graph.n_ops graph in
  let arms =
    Pool.init ~label:"portfolio-arm" ~jobs 2 (function
      | 0 ->
        let sched = Engine.run ~case1:true ~tc graph allocation in
        `Heuristic sched
      | _ -> `Exact (Exact.schedule ~fuel ~tc graph allocation))
  in
  let heur =
    match arms.(0) with `Heuristic s -> s | `Exact _ -> assert false
  in
  let e = match arms.(1) with `Exact e -> e | `Heuristic _ -> assert false in
  let candidates =
    [
      (heur.Types.makespan, n_ops, 0, Heuristic_arm, heur);
      (e.Exact.schedule.makespan, e.explored, 1, Exact_arm, e.Exact.schedule);
    ]
  in
  let _, ticks, _, selected, sched =
    List.fold_left
      (fun ((m1, t1, i1, _, _) as a) ((m2, t2, i2, _, _) as b) ->
        let cmp = Float.compare m1 m2 in
        let cmp = if cmp <> 0 then cmp else compare t1 t2 in
        let cmp = if cmp <> 0 then cmp else compare i1 i2 in
        if cmp <= 0 then a else b)
      (List.hd candidates) (List.tl candidates)
  in
  ( sched,
    {
      backend = Portfolio;
      selected;
      optimal = e.optimal;
      truncated = e.truncated;
      explored = e.explored;
      fuel = e.fuel;
      ticks;
      heuristic_makespan = heur.makespan;
      makespan = sched.makespan;
    } )

let schedule ?(heuristic = Dcsa_scheduler.schedule) ?fuel ?jobs ~tc backend
    graph allocation =
  match backend with
  | Heuristic -> (heuristic ~tc graph allocation, None)
  | Exact ->
    let sched, decision = exact ?fuel ~tc graph allocation in
    (sched, Some decision)
  | Portfolio ->
    let sched, decision = race ?fuel ?jobs ~tc graph allocation in
    (sched, Some decision)
