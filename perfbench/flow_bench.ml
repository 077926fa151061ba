(* The synthesis-flow workload, table1.

   A pass synthesises the seven Table I assays at [--jobs 1] through the
   paper's flow and the baseline BA, and every result goes through the
   correctness gate.  The untraced run calls the
   public entry points (Flow.run, Baseline.run) and times each call and
   each pass.  The traced run composes the paper's flow from its public
   stages instead, records a span around every stage, reads the existing
   telemetry counters through an installed sink, and checks that the
   composition reproduces Flow.run byte for byte. *)

module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module Config = Mfb_core.Config
module Result = Mfb_core.Result
module Seq_graph = Mfb_bioassay.Seq_graph
open Measure

type instance = {
  graph : Seq_graph.t;
  allocation : Mfb_component.Allocation.t;
}

let instances () =
  List.map
    (fun (i : Mfb_core.Suite.instance) ->
      { graph = i.graph; allocation = i.allocation })
    (Mfb_core.Suite.all ())

(* The untimed warm-up pass runs the default annealer seed (the golden
   corpus).  The timed passes cycle through [cycle] annealer seeds drawn
   from the workload seed: pass k >= 1 runs the ((k - 1) mod cycle)-th.
   Each call is thus repeated through the run, and its best time is
   kept (see [run_untraced]).  Quality moves more with the annealer
   seed than time does, so it is averaged over the first cycle and
   [quality_extra] more seeds, in untimed passes. *)
let cycle = 4

let quality_extra = 4

let annealer_seed ~seed j =
  1 + Random.State.int (Random.State.make [| seed; j; 0x7ab1e1 |]) 1_000_000

let pass_seed ~seed k = annealer_seed ~seed (1 + ((k - 1) mod cycle))

(* Every call runs at least twice. *)
let min_passes = 2 * cycle

let config_for seed = { Config.default with seed }

(* ---------------- correctness gate ---------------- *)

(* Violations reported by the schedule checker, the design-rule checker
   and the discrete-event replay, plus unresolved routing tasks. *)
let audit ~tc (r : Result.t) =
  let sched = Mfb_schedule.Check.validate ~tc r.schedule in
  let drc = Mfb_route.Drc.check r.chip r.routing in
  let replay =
    Mfb_sim.Replay.check
      (Mfb_sim.Replay.create ~tc ~chip:r.chip ~schedule:r.schedule
         ~routing:r.routing)
  in
  List.length sched + List.length drc + List.length replay
  + r.routing.unresolved

(* [Result.to_json] without the named fields. *)
let json_without keys (r : Result.t) =
  match Result.to_json r with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields))
  | j -> Json.to_string j

let timing = [ "cpu_time_s"; "wall_time_s" ]

(* The CLI's `run --json` rendering with its timing lines removed — the
   form in which test/golden.t stores the corpus. *)
let golden_bytes (r : Result.t) =
  Json.to_string ~indent:2 (Result.to_json r) ^ "\n"
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         not
           (contains l "\"cpu_time_s\""
           || contains l "\"wall_time_s\""))
  |> String.concat "\n"

let fingerprint ?(without = timing) results =
  List.map (json_without without) results

let mismatches ~what a b =
  List.fold_left2
    (fun bad (r : Result.t) (x, y) ->
      if String.equal x y then bad
      else begin
        Printf.eprintf "%s: %s/%s differs\n%!" what r.benchmark r.flow;
        bad + 1
      end)
    0 a
    (List.combine (fingerprint a) b)

(* ---------------- passes ----------------

   A pass's synthesis time is the sum of its synthesis calls; the audit
   that follows each pass is the benchmark's correctness gate and is
   timed only in the traced run, as its own layer. *)

type pass = {
  synth : float;
  calls : (float * float) list;
      (* wall and CPU seconds of each Flow.run / Baseline.run call, in
         call order *)
  quality : float * float * float;
      (* our flow's summed execution time and channel length, and mean
         utilisation *)
}

let quality_of (ours : Result.t list) =
  let sum f = List.fold_left (fun a r -> a +. f r) 0. ours in
  ( sum (fun r -> r.execution_time),
    sum (fun r -> r.channel_length_mm),
    sum (fun r -> r.utilization) /. float_of_int (List.length ours) )

(* Untraced: the public entry points, each call timed.  Returns the
   pass and its results in call order. *)
let plain_pass ~annealer_seed insts =
  let calls = ref [] and results = ref [] and ours = ref [] in
  let call f =
    let c0 = cpu_self () in
    let r, dt = time f in
    calls := (dt, cpu_self () -. c0) :: !calls;
    results := r :: !results;
    r
  in
  let config = config_for annealer_seed in
  List.iter
    (fun i ->
      ours :=
        call (fun () -> Mfb_core.Flow.run ~config ~jobs:1 i.graph i.allocation)
        :: !ours;
      ignore (call (fun () -> Mfb_core.Baseline.run ~config i.graph i.allocation)))
    insts;
  ( {
      synth = List.fold_left (fun a (w, _) -> a +. w) 0. !calls;
      calls = List.rev !calls;
      quality = quality_of (List.rev !ours);
    },
    List.rev !results )

(* Results of a pass that fail the audit. *)
let gate ?(audit_span = fun _ f -> f ()) results =
  List.fold_left
    (fun bad (r : Result.t) ->
      let v = audit_span r (fun () -> audit ~tc:Config.default.tc r) in
      if v > 0 then
        Printf.eprintf "%s/%s: %d violation(s)\n%!" r.benchmark r.flow v;
      bad + Bool.to_int (v > 0))
    0 results

(* Flow.run's default path (DCSA scheduling, connection-priority SA
   placement, sequential conflict-aware routing, retiming), one public
   stage per span. *)
let composed_run ~rid ~(config : Config.t) i =
  let name = Seq_graph.name i.graph in
  let (sched, chip, routing), metrics =
    Telemetry.with_scope (Printf.sprintf "run:%s/ours" name) (fun () ->
        (* Inside the scope, so that the stage spans share its track. *)
        span ~rid "ours" @@ fun () ->
        let sched =
          span "schedule" (fun () ->
              Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.tc i.graph
                i.allocation)
        in
        let chip =
          span "place" (fun () ->
              let nets =
                Mfb_place.Energy.weigh ~beta:config.beta ~gamma:config.gamma
                  (Mfb_place.Net.of_schedule sched)
              in
              (Mfb_place.Annealer.anneal_multi ~params:config.sa ~jobs:1
                 ~restarts:config.sa_restarts
                 ~rng:(Mfb_util.Rng.create config.seed)
                 ~nets sched.components)
                .chip)
        in
        let routing =
          span "route" (fun () ->
              Mfb_route.Router.route ~weight_update:true ~route_io:false
                ~we:config.we ~tc:config.tc chip sched)
        in
        let final =
          span "retime" (fun () ->
              let delayed kind (t : Mfb_route.Routed.task) =
                t.kind = kind && t.delay > 0.
              in
              let delays =
                List.filter_map
                  (fun (t : Mfb_route.Routed.task) ->
                    if delayed Mfb_route.Routed.Transport t then
                      Some (t.transport.edge, t.delay)
                    else None)
                  routing.tasks
              and op_delays =
                List.filter_map
                  (fun (t : Mfb_route.Routed.task) ->
                    if delayed Mfb_route.Routed.Dispense t then
                      Some (fst t.transport.edge, t.delay)
                    else None)
                  routing.tasks
              in
              if delays = [] && op_delays = [] then sched
              else
                Mfb_schedule.Retime.with_transport_delays ~op_delays sched
                  ~delays)
        in
        (final, chip, routing))
  in
  ( Result.of_stages ~benchmark:name ~flow:"ours" ~cpu_time:0. ~metrics
      ~schedule:sched ~chip ~routing (),
    metrics )

(* Traced: the paper's flow composed stage by stage, the baseline as
   one span, under an installed sink.  Returns the pass's synthesis
   time, its results in call order, our flow's results and their
   telemetry aggregates. *)
let traced_pass ~annealer_seed insts =
  let results = ref [] and ours = ref [] and metrics = ref [] in
  let calls = ref [] in
  let call f =
    let r, dt = time f in
    calls := dt :: !calls;
    results := r :: !results;
    r
  in
  let config = config_for annealer_seed in
  List.iter
    (fun i ->
      let rid = Printf.sprintf "%s/%d" (Seq_graph.name i.graph) annealer_seed in
      let r =
        call (fun () ->
            let r, m = composed_run ~rid ~config i in
            metrics := m @ !metrics;
            r)
      in
      ours := r :: !ours;
      ignore
        (call (fun () ->
             span ~rid "ba" (fun () ->
                 Mfb_core.Baseline.run ~config i.graph i.allocation))))
    insts;
  ( List.fold_left ( +. ) 0. !calls,
    List.rev !results,
    List.rev !ours,
    !metrics )

(* The composed flow must reproduce Flow.run exactly: same stage
   outputs, same telemetry aggregates. *)
let composition_mismatches ~annealer_seed insts composed =
  Telemetry.install (Telemetry.make_sink ~clock:now ());
  let config = config_for annealer_seed in
  let runs =
    List.map
      (fun i -> Mfb_core.Flow.run ~config ~jobs:1 i.graph i.allocation)
      insts
  in
  Telemetry.uninstall ();
  mismatches ~what:"composed flow vs Flow.run" runs (fingerprint composed)

(* ---------------- metrics ---------------- *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs

let quality passes =
  let avg f = mean (List.map (fun p -> f p.quality) passes) in
  [
    ("exec_time_s", avg (fun (e, _, _) -> e));
    ("channel_mm", avg (fun (_, c, _) -> c));
    ("utilization", avg (fun (_, _, u) -> u));
  ]

let load_golden insts =
  List.map
    (fun i ->
      let path =
        Filename.concat "test/golden.t"
          (Seq_graph.name i.graph ^ "_jobs1.golden.json")
      in
      (Seq_graph.name i.graph, In_channel.with_open_bin path In_channel.input_all))
    insts

(* Set-up: [k] timings of building the inputs and reading the golden
   corpus. *)
let setup_samples k =
  List.init k (fun _ -> snd (time (fun () -> ignore (load_golden (instances ())))))

let golden_mismatches insts results =
  let golden = load_golden insts in
  List.fold_left
    (fun bad (r : Result.t) ->
      match List.assoc_opt r.benchmark golden with
      | Some expected when String.equal expected (golden_bytes r) -> bad
      | _ ->
        Printf.eprintf "golden mismatch: %s\n%!" r.benchmark;
        bad + 1)
    0
    (List.filter (fun (r : Result.t) -> r.flow = "ours") results)

(* Time-bounded: passes continue until [seconds] have elapsed and at
   least [min_passes] have run. *)
let timed_loop ~seconds f =
  let t_end = now () +. seconds in
  let rec loop k acc =
    if k > min_passes && now () >= t_end then List.rev acc
    else loop (k + 1) (f k :: acc)
  in
  loop 1 []

(* The untimed warm-up pass fills the heap and must match the golden
   corpus.  Returns (results, failed). *)
let warm_up insts =
  let _, results = plain_pass ~annealer_seed:Config.default.seed insts in
  (List.length results, golden_mismatches insts results + gate results)

let run_untraced ~seed ~seconds =
  let insts = instances () in
  let warm_results, warm_failed = warm_up insts in
  (* Set-up is timed after the warm-up and then after every pass,
     outside the pass's own timing.  A block of repetitions at one
     moment read up to 30 % apart from run to run; samples spread over
     the run see the host's average speed, as the passes do. *)
  let setup = ref (setup_samples 4) in
  let attempted = ref warm_results and failed = ref warm_failed in
  let extra =
    List.init quality_extra (fun i ->
        let p, results =
          plain_pass ~annealer_seed:(annealer_seed ~seed (cycle + 1 + i)) insts
        in
        failed := !failed + gate results;
        attempted := !attempted + List.length results;
        p)
  in
  (* best.(j): each call's best wall and CPU time over the passes of
     the j-th annealer seed.  The host's speed swings by a third within
     seconds and drifts for minutes; a call's best time over repetitions
     spread across the run is what a quiet host gives, and it moves
     with the program alone. *)
  let best = Array.make cycle [||] in
  let passes =
    timed_loop ~seconds (fun k ->
        let p, results = plain_pass ~annealer_seed:(pass_seed ~seed k) insts in
        failed := !failed + gate results;
        attempted := !attempted + List.length results;
        setup := setup_samples 4 @ !setup;
        let j = (k - 1) mod cycle and calls = Array.of_list p.calls in
        best.(j) <-
          (if best.(j) = [||] then calls
           else
             Array.map2
               (fun (w, c) (w', c') -> (Float.min w w', Float.min c c'))
               best.(j) calls);
        p)
  in
  let first = List.filteri (fun k _ -> k < cycle) passes in
  let best_calls = List.concat_map Array.to_list (Array.to_list best) in
  let per_pass f = sum f best_calls /. float_of_int cycle in
  let synth = per_pass fst in
  (* Latency is what each call took, every call of the run counted. *)
  let walls = List.concat_map (fun p -> List.map fst p.calls) passes in
  let metrics =
    [
      ("setup_s", median !setup);
      ("synth_s", synth);
      ("cpu_s", per_pass snd);
      ("peak_rss_mb", Option.value (peak_rss_mb "self") ~default:Float.nan);
    ]
    @ quality (first @ extra)
    @ [
        ("ok_frac", 1. -. ratio !failed !attempted);
        ("lat_p50_ms", 1e3 *. quantile walls 0.50);
        ("lat_p99_ms", 1e3 *. quantile walls 0.99);
        (* syntheses per second, one after another *)
        ( "max_rps_at_slo",
          float_of_int (Array.length best.(0)) /. synth );
      ]
  in
  (metrics, !attempted, !failed)

let counter metrics ~cat name =
  List.fold_left
    (fun acc (m : Telemetry.metric) ->
      if m.mcat = cat && m.mname = name then
        match m.mdata with
        | Telemetry.Counter n -> acc + n
        | Telemetry.Histogram h -> acc + h.count
        | Telemetry.Gauge _ -> acc
      else acc)
    0 metrics

let run_traced ~seed ~seconds ~trace_file =
  let insts = instances () in
  ignore (plain_pass ~annealer_seed:Config.default.seed insts);
  let audit_span (r : Result.t) f = span ~rid:r.benchmark "audit" f in
  let spans = ref [] in
  let violations = ref 0 and differing = ref 0 in
  let attempted = ref 0 in
  let first_ours = ref [] in
  (* Untraced and traced passes alternate over the same seeds, so the
     tracing overhead is measured against work of the same shape.  Both
     must give the same designs; the traced ones are audited. *)
  let pairs =
    timed_loop ~seconds (fun k ->
        let annealer_seed = pass_seed ~seed k in
        let p, plain_results = plain_pass ~annealer_seed insts in
        (* A fresh sink per pass keeps the run's memory flat; its
           spans are digested, and the first pass's events (spans and
           the program's counter samples) are written out as the
           trace. *)
        let sink = Telemetry.make_sink ~clock:now () in
        Telemetry.install sink;
        let t, results, ours, m = traced_pass ~annealer_seed insts in
        let without = "metrics" :: timing in
        differing :=
          !differing
          + mismatches ~what:"traced vs untraced pass" plain_results
              (fingerprint ~without results);
        violations := !violations + gate ~audit_span results;
        Telemetry.uninstall ();
        spans := timed_spans sink @ !spans;
        if k = 1 then append_trace sink trace_file;
        attempted :=
          !attempted + List.length plain_results + List.length results;
        if k = 1 then first_ours := ours;
        (p, t, m))
  in
  let plain = List.map (fun (p, _, _) -> p) pairs in
  let traced = List.map (fun (_, t, _) -> t) pairs in
  let metrics_all = List.concat_map (fun (_, _, m) -> m) pairs in
  let failed =
    !violations + !differing
    + composition_mismatches ~annealer_seed:(pass_seed ~seed 1) insts
        !first_ours
  in
  let n = float_of_int (List.length traced) in
  let self = self_by_name !spans in
  let ms name = 1e3 *. self name /. n in
  let per_pass ~cat name = float_of_int (counter metrics_all ~cat name) /. n in
  let traced_synth = sum Fun.id traced in
  let attributed = sum self [ "schedule"; "place"; "route"; "retime"; "ba" ] in
  let plain_median = median (List.map (fun p -> p.synth) plain) in
  let metrics =
    [
      ("schedule.ms", ms "schedule");
      ("place.ms", ms "place");
      ("place.sa_attempted", per_pass ~cat:"place" "sa.attempted");
      ( "place.sa_accept_ratio",
        ratio
          (counter metrics_all ~cat:"place" "sa.accepted")
          (counter metrics_all ~cat:"place" "sa.attempted") );
      ("place.delta_evals", per_pass ~cat:"place" "delta_evals");
      ("route.ms", ms "route");
      ("route.astar_pops", per_pass ~cat:"route" "astar.pops");
      ("route.field_builds", per_pass ~cat:"route" "heuristic_field_builds");
      ( "route.conflict_rejections",
        per_pass ~cat:"route" "conflict.rejections" );
      ("route.delayed_tasks", per_pass ~cat:"route" "task.delay");
      ("retime.ms", ms "retime");
      ("audit.ms", 1e3 *. self "audit" /. n);
      ("audit.violations", float_of_int !violations);
      ("ba.ms", ms "ba");
      ( "trace.overhead_pct",
        100. *. (median traced -. plain_median)
        /. plain_median );
      ( "trace.unattributed_pct",
        100. *. (traced_synth -. attributed) /. traced_synth );
    ]
  in
  (metrics, !attempted, failed)
