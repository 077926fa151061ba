module Json = Mfb_util.Json
module Lru = Mfb_util.Lru
module Telemetry = Mfb_util.Telemetry
module Histogram = Mfb_util.Histogram
module P = Protocol

(* A fully resolved, validated synthesis job — everything needed to run
   it on any worker domain without touching server state.  The original
   [spec] and [overrides] ride along so a dispatch hook can re-submit
   the job verbatim to an out-of-process worker. *)
type job = {
  key : Cache_key.t;
  graph : Mfb_bioassay.Seq_graph.t;
  allocation : Mfb_component.Allocation.t;
  config : Mfb_core.Config.t;
  flow : [ `Ours | `Ba ];
  spec : P.spec;
  overrides : P.overrides;
}

(* One batch slot's answer for one job.  The fleet dispatcher fills in
   attribution (slot, attempts, worker-side span tree); the in-process
   path leaves it empty, which is exactly what keeps the access log
   byte-identical between the two transports. *)
type dispatch_result = {
  d_payload : Json.t;
  d_slot : int option;
  d_attempts : int;
  d_spans : Telemetry.node list;
}

type config = {
  jobs : int;
  cache_capacity : int;
  queue_depth : int;
  batch : int;
  repair_cache : int;
  similarity : bool;
  sim_threshold : int;
  warm_delta : float;
  flow_config : Mfb_core.Config.t;
  dispatch : (job list -> dispatch_result list) option;
  extra_stats : (unit -> (string * Json.t) list) option;
  extra_prometheus : (Buffer.t -> unit) option;
  clock : [ `Virtual | `Wall ];
  access_log : out_channel option;
  slow_threshold : float option;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 128;
    queue_depth = 64;
    batch = 8;
    repair_cache = 8;
    similarity = false;
    sim_threshold = 8;
    warm_delta = 0.25;
    flow_config = Mfb_core.Config.default;
    dispatch = None;
    extra_stats = None;
    extra_prometheus = None;
    clock = `Virtual;
    access_log = None;
    slow_threshold = None;
  }

type outcome = Done of { key : Cache_key.t; payload : Json.t } | Shed of string

(* Request-scoped bookkeeping, keyed by client id from admission to the
   final outcome.  [rid] is the deterministic request id (a pure
   function of submission order), so every observability artifact that
   mentions it is identical across [--jobs] values and transports. *)
type req_info = {
  rid : string;
  submit_tick : int;
  submit_wall : float;
}

(* --- batch synthesis --- *)

let synthesize job =
  match job.flow with
  | `Ours ->
    Mfb_core.Flow.run ~config:job.config ~jobs:1 job.graph job.allocation
  | `Ba -> Mfb_core.Baseline.run ~config:job.config job.graph job.allocation

let run_job_full ?trace job =
  match trace with
  | None -> synthesize job
  | Some args ->
    Telemetry.span ~cat:"serve" ~args "request" (fun () -> synthesize job)

let summary_of full = Mfb_core.Result.(summary_to_json (summarize full))

let run_job ?trace job = summary_of (run_job_full ?trace job)

(* How a batch computed one of its unique jobs. *)
type path =
  | Cold
  | Fallback  (* cold, after a failed warm-start attempt *)
  | Near of float  (* warm-started; latency in clock units *)

(* One Prometheus sample with its HELP and TYPE lines. *)
let prom_metric buf kind name help v =
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n%s %d\n" name help name kind
       name v)

(* --- the result store ---

   Every reuse path reads one store with three tiers, all keyed by
   {!Cache_key}:
   - exact: summary payloads, answering repeats byte-identically;
   - full: full results retained from in-process runs, the warm-start
     seeds of repairs and near-hits.  A miss re-synthesizes the job cold
     with the same config at [jobs = 1], byte-identical to its original
     run, so cache temperature changes latency, never bytes;
   - near: the similarity index over computed jobs.  It holds resolved
     jobs, never results, and a candidate's seed resolves through
     [full] — so warm-start decisions and payloads are a pure function
     of the request script on every transport.
   [record] fills every tier after a compute; [tiers] lists the
   exported series once for stats, Prometheus and shutdown totals. *)
module Store = struct
  type t = {
    exact : (Cache_key.t, Json.t) Lru.t option;
    full : (Cache_key.t, Mfb_core.Result.t) Lru.t option;
    near : job Sim_index.t option;
    h_near : Histogram.t;  (* warm-start latency, clock units *)
    h_repair : Histogram.t;  (* repair latency, clock units *)
    mutable near_hits : int;
    mutable fallbacks : int;
    mutable repairs : int;
    mutable repairs_warm : int;
  }

  let create cfg =
    let lru name capacity =
      if capacity = 0 then None else Some (Lru.create ~name ~capacity ())
    in
    {
      exact = lru "results" cfg.cache_capacity;
      full = lru "full-results" cfg.repair_cache;
      near =
        (if cfg.similarity then
           Some
             (Sim_index.create
                ~capacity:(max 16 cfg.cache_capacity)
                ~threshold:cfg.sim_threshold ())
         else None);
      h_near = Histogram.create ();
      h_repair = Histogram.create ();
      near_hits = 0;
      fallbacks = 0;
      repairs = 0;
      repairs_warm = 0;
    }

  (* Counted lookup: a hit or a miss, and the entry becomes most recent. *)
  let exact s key = Option.bind s.exact (fun c -> Lru.find c key)

  (* The job's full result and whether it was still retained. *)
  let full s (job : job) =
    match Option.bind s.full (fun c -> Lru.find c job.key) with
    | Some r -> (r, true)
    | None ->
      let r = synthesize job in
      Option.iter (fun c -> Lru.add c job.key r) s.full;
      (r, false)

  let fingerprint s (job : job) =
    match s.near with
    | Some _ when job.flow = `Ours ->
      Some
        (Sim_index.fingerprint ~flow:"ours" ~config:job.config
           ~graph:job.graph ~allocation:job.allocation ())
    | _ -> None

  (* The nearest computed job's full result, and whether it was still
     retained, when one lies within the similarity threshold. *)
  let near s (job : job) fp =
    match s.near with
    | None -> None
    | Some sim ->
      Option.map
        (fun (_, seed, _) -> full s seed)
        (Sim_index.nearest sim job.key fp)

  let record s (job : job) ?fp ~path payload full =
    Option.iter (fun c -> Lru.add c job.key payload) s.exact;
    (match (s.full, full) with
     | Some c, Some r -> Lru.add c job.key r
     | _ -> ());
    (match (s.near, fp) with
     | Some sim, Some fp -> Sim_index.add sim job.key fp job
     | _ -> ());
    match path with
    | Cold -> ()
    | Fallback ->
      s.fallbacks <- s.fallbacks + 1;
      Telemetry.incr ~cat:"serve" "warm.fallbacks"
    | Near latency ->
      s.near_hits <- s.near_hits + 1;
      Telemetry.incr ~cat:"serve" "near.hits";
      Histogram.add s.h_near latency

  let repaired s ~warm latency =
    s.repairs <- s.repairs + 1;
    if warm then s.repairs_warm <- s.repairs_warm + 1;
    Histogram.add s.h_repair latency

  type value = Counter of int | Gauge of int | Dist of Histogram.t

  (* One exported series: its stats field, and its Prometheus name and
     help unless the field is stats-only. *)
  type series = { field : string; prom : (string * string) option;
                  value : value }

  (* [(section, series)] per tier in stats order, [None] while the tier
     is off or unused: near and repair appear only once used, so
     transcripts that never touch them keep their bytes. *)
  let tiers s =
    let series ?prom field value = { field; prom; value } in
    let exact =
      Option.map
        (fun c ->
          let st = Lru.stats c in
          [ series "capacity" (Gauge (Lru.capacity c));
            series "entries" (Gauge (Lru.length c))
              ~prom:("dcsa_cache_entries", "live result cache entries");
            series "hits" (Counter st.hits)
              ~prom:("dcsa_cache_hits_total", "result cache hits");
            series "misses" (Counter st.misses)
              ~prom:("dcsa_cache_misses_total", "result cache misses");
            series "evictions" (Counter st.evictions)
              ~prom:("dcsa_cache_evictions_total", "result cache evictions") ])
        s.exact
    in
    let near =
      if s.near_hits + s.fallbacks = 0 then None
      else
        Some
          [ series "hits" (Counter s.near_hits)
              ~prom:
                ( "dcsa_near_hits_total",
                  "submissions answered by a warm start from a similar \
                   cached solution" );
            series "fallbacks" (Counter s.fallbacks)
              ~prom:
                ( "dcsa_warm_fallbacks_total",
                  "warm-start attempts that fell back to cold synthesis" );
            series "latency" (Dist s.h_near)
              ~prom:
                ( "dcsa_warm_latency",
                  "warm-start latency (ticks, or ms in wall mode)" ) ]
    in
    let repair =
      if s.repairs = 0 then None
      else
        Some
          [ series "total" (Counter s.repairs)
              ~prom:("dcsa_repairs_total", "repair requests answered");
            series "warm" (Counter s.repairs_warm)
              ~prom:
                ( "dcsa_repairs_warm_total",
                  "repairs warm-started from a retained full result" );
            series "latency" (Dist s.h_repair)
              ~prom:
                ( "dcsa_repair_latency",
                  "repair latency (ticks, or ms in wall mode)" ) ]
    in
    [ ("cache", exact); ("near", near); ("repair", repair) ]

  let to_json ?(counters_only = false) ss =
    Json.Obj
      (List.filter_map
         (fun r ->
           match r.value with
           | Counter v -> Some (r.field, Json.Int v)
           | Gauge v when not counters_only -> Some (r.field, Json.Int v)
           | Dist h when not counters_only ->
             Some (r.field, Histogram.snapshot_json h)
           | Gauge _ | Dist _ -> None)
         ss)

  let to_prometheus buf ss =
    List.iter
      (fun r ->
        match (r.prom, r.value) with
        | None, _ -> ()
        | Some (name, help), Counter v -> prom_metric buf "counter" name help v
        | Some (name, help), Gauge v -> prom_metric buf "gauge" name help v
        | Some (name, help), Dist h -> Histogram.prometheus ~help ~name buf h)
      ss
end

type t = {
  cfg : config;
  store : Store.t;
  specs : (string, job) Hashtbl.t;  (* accepted id -> resolved job *)
  queue : job Job_queue.t;
  outcomes : (string, outcome) Hashtbl.t;
  ids : (string, unit) Hashtbl.t;  (* every accepted id, for dedupe *)
  req_info : (string, req_info) Hashtbl.t;
  h_latency : Histogram.t;    (* total request latency, clock units *)
  h_queue_wait : Histogram.t; (* queue wait in virtual ticks *)
  mutable next_rid : int;
  mutable tick : int;
  mutable submitted : int;
  mutable computed : int;
  mutable shed_deadline : int;
  mutable shed_displaced : int;
  mutable rejected : int;
  mutable stopping : bool;
}

let create cfg =
  if cfg.jobs < 1 then invalid_arg "Server.create: jobs < 1";
  if cfg.batch < 1 then invalid_arg "Server.create: batch < 1";
  if cfg.cache_capacity < 0 then
    invalid_arg "Server.create: cache_capacity < 0";
  if cfg.repair_cache < 0 then invalid_arg "Server.create: repair_cache < 0";
  if cfg.sim_threshold < 0 then invalid_arg "Server.create: sim_threshold < 0";
  if cfg.warm_delta < 0. then invalid_arg "Server.create: warm_delta < 0";
  {
    cfg;
    store = Store.create cfg;
    specs = Hashtbl.create 64;
    queue = Job_queue.create ~depth:cfg.queue_depth ();
    outcomes = Hashtbl.create 64;
    ids = Hashtbl.create 64;
    req_info = Hashtbl.create 64;
    h_latency = Histogram.create ();
    h_queue_wait = Histogram.create ();
    next_rid = 0;
    tick = 0;
    submitted = 0;
    computed = 0;
    shed_deadline = 0;
    shed_displaced = 0;
    rejected = 0;
    stopping = false;
  }

let current_tick t = t.tick

let shutting_down t = t.stopping

(* --- request resolution --- *)

let ( let* ) = Stdlib.Result.bind

let resolve_spec = function
  | P.Benchmark name ->
    (match Mfb_core.Suite.find name with
     | Some (inst : Mfb_core.Suite.instance) -> Ok (inst.graph, inst.allocation)
     | None ->
       Error
         (Printf.sprintf "unknown benchmark %S; try: %s" name
            (String.concat ", " Mfb_core.Suite.names)))
  | P.Assay { text; alloc } ->
    (match Mfb_bioassay.Assay_file.parse text with
     | Error e ->
       Error (Format.asprintf "assay: %a" Mfb_bioassay.Assay_file.pp_error e)
     | Ok graph ->
       let* allocation =
         match alloc with
         | None -> Ok (Mfb_component.Allocation.minimal_for graph)
         | Some v ->
           (match Mfb_component.Allocation.of_vector v with
            | a -> Ok a
            | exception Invalid_argument msg -> Error msg)
       in
       Ok (graph, allocation))

let apply_overrides (cfg : Mfb_core.Config.t) (o : P.overrides) =
  let cfg =
    match o.o_seed with None -> cfg | Some seed -> { cfg with seed }
  in
  let cfg = match o.o_tc with None -> cfg | Some tc -> { cfg with tc } in
  let cfg =
    match o.o_sa_restarts with
    | None -> cfg
    | Some sa_restarts -> { cfg with sa_restarts }
  in
  let cfg =
    match o.o_backend with
    | None -> cfg
    | Some backend -> { cfg with backend }
  in
  match Mfb_core.Config.validate cfg with
  | () -> Ok cfg
  | exception Invalid_argument msg -> Error msg

let resolve ~base ~flow ~overrides spec =
  let* graph, allocation = resolve_spec spec in
  let* () =
    if Mfb_component.Allocation.covers allocation graph then Ok ()
    else
      Error
        (Printf.sprintf "allocation %s does not cover every operation kind"
           (Mfb_component.Allocation.to_string allocation))
  in
  let* config = apply_overrides base overrides in
  let flow_name = match flow with `Ours -> "ours" | `Ba -> "ba" in
  let key = Cache_key.make ~flow:flow_name ~config ~graph ~allocation () in
  Ok { key; graph; allocation; config; flow; spec; overrides }

(* --- request observability ---

   Every submission is assigned a deterministic request id and ends in
   exactly one of the outcomes {hit, done, near-hit, shed, rejected};
   every repair in {repair, repair-cold, rejected}.  At that point
   [finish_request] builds one span-tree [node] for the request — queue
   wait and compute phases as children, worker-side spans (when a fleet
   shipped them back) grafted under the compute phase — and feeds it to
   all three consumers: the telemetry sink (one subtrack per request),
   the access log (one JSONL record, plus the span tree for slow
   requests), and the latency histogram. *)

let next_rid t =
  t.next_rid <- t.next_rid + 1;
  Printf.sprintf "r%06d" t.next_rid

let key_prefix key =
  let hex = Cache_key.to_hex key in
  if String.length hex > 8 then String.sub hex 0 8 else hex

let latency_units t (info : req_info) ~total_ticks =
  match t.cfg.clock with
  | `Virtual -> float_of_int total_ticks
  | `Wall -> (Unix.gettimeofday () -. info.submit_wall) *. 1000.0

let request_node ~args ~queue_ticks ~compute_ticks ~worker_spans =
  let open Telemetry in
  let phase name dur children =
    { n_name = name; n_cat = "serve"; n_args = []; n_dur_us = float_of_int dur;
      n_children = children }
  in
  {
    n_name = "request";
    n_cat = "serve";
    n_args = args;
    n_dur_us = float_of_int (queue_ticks + compute_ticks);
    n_children =
      (if queue_ticks > 0 || compute_ticks > 0 then
         [ phase "queue.wait" queue_ticks [] ]
       else [])
      @ (if compute_ticks > 0 then
           [ phase "compute" compute_ticks worker_spans ]
         else []);
  }

(* The one writer of access-log records.  Fixed field order, so [cmp]
   can prove the log is a pure function of the request script; fleet
   attribution rides in a trailing optional subobject that identity
   checks strip. *)
let finish_request t ~rid ~id ?job ~outcome ?reason ?batch ?fleet
    ?(queue_ticks = 0) ?(compute_ticks = 0) ?(worker_spans = []) ?latency
    () =
  let key, backend =
    match job with
    | None -> ("-", "-")
    | Some (job : job) ->
      ( key_prefix job.key,
        Mfb_schedule.Portfolio.backend_to_string job.config.backend )
  in
  let opt name f = Option.fold ~none:[] ~some:(fun v -> [ (name, f v) ]) in
  let node =
    let open Telemetry in
    request_node ~queue_ticks ~compute_ticks ~worker_spans
      ~args:
        ([ ("rid", Str rid); ("id", Str id); ("key", Str key);
           ("backend", Str backend); ("outcome", Str outcome) ]
         @ opt "reason" (fun r -> Str r) reason
         @ opt "batch" (fun b -> Int b) batch
         @ Option.fold ~none:[]
             ~some:(fun (slot, retries) ->
               [ ("slot", Int slot); ("retries", Int retries) ])
             fleet)
  in
  if Telemetry.active () then
    Telemetry.on_subtrack (Telemetry.subtrack rid) (fun () ->
        Telemetry.emit_node node);
  Option.iter (Histogram.add t.h_latency) latency;
  Option.iter
    (fun oc ->
      let slow =
        match (t.cfg.slow_threshold, latency) with
        | Some thr, Some l -> l >= thr
        | _ -> false
      in
      let fields =
        [ ("rid", Json.String rid); ("id", Json.String id);
          ("key", Json.String key); ("backend", Json.String backend);
          ("outcome", Json.String outcome) ]
        @ opt "reason" (fun r -> Json.String r) reason
        @ [ ("queue_ticks", Json.Int queue_ticks);
            ("compute_ticks", Json.Int compute_ticks);
            ("total_ticks", Json.Int (queue_ticks + compute_ticks)) ]
        @ opt "batch" (fun b -> Json.Int b) batch
        @ opt "fleet"
            (fun (slot, retries) ->
              Json.Obj
                [ ("slot", Json.Int slot); ("retries", Json.Int retries) ])
            fleet
        @ (if slow then [ ("spans", Json.List [ Telemetry.node_to_json node ]) ]
           else [])
      in
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n';
      flush oc)
    t.cfg.access_log

let req_info_of t id =
  match Hashtbl.find_opt t.req_info id with
  | Some info -> info
  | None -> { rid = "-"; submit_tick = t.tick; submit_wall = 0.0 }

(* An admitted request's bookkeeping, released at its outcome. *)
let take_info t id =
  let info = req_info_of t id in
  Hashtbl.remove t.req_info id;
  info

let shed t (it : job Job_queue.item) ~why ~reason ~queue_ticks ?batch () =
  Hashtbl.replace t.outcomes it.id (Shed reason);
  let info = take_info t it.id in
  finish_request t ~rid:info.rid ~id:it.id ~job:it.payload ~outcome:"shed"
    ~reason:why ?batch ~queue_ticks ()

(* --- batch execution: admit -> resolve -> compute -> publish ---

   One virtual tick runs up to [batch] jobs in dispatch order.  Identical
   keys compute once, and the store is filled and every outcome published
   in dispatch order, so every counter and payload is a pure function of
   the request sequence. *)

(* One unique job's answer, from compute to publish. *)
type computed = {
  item : job Job_queue.item;  (* the request that computed it *)
  fp : Sim_index.fp option;  (* its similarity fingerprint *)
  payload : Json.t;
  full : Mfb_core.Result.t option;  (* retained for warm starts *)
  fleet : (int * int) option;  (* fleet slot and retries *)
  spans : Telemetry.node list;  (* worker-side span forest *)
  path : path;
}

let queue_wait t (it : job Job_queue.item) = max 0 (t.tick - it.submitted - 1)

(* Admit: advance the clock, pop a batch, and shed the expired jobs. *)
let admit t =
  t.tick <- t.tick + 1;
  Telemetry.incr ~cat:"serve" "batches";
  let dispatched, dead =
    Job_queue.pop_batch t.queue ~now:t.tick ~max:t.cfg.batch
  in
  List.iter
    (fun (it : job Job_queue.item) ->
      t.shed_deadline <- t.shed_deadline + 1;
      Telemetry.incr ~cat:"serve" "shed.deadline";
      let qw = queue_wait t it in
      Histogram.add t.h_queue_wait (float_of_int qw);
      shed t it ~why:"deadline" ~batch:t.tick ~queue_ticks:qw
        ~reason:
          (Printf.sprintf
             "deadline exceeded: submitted at tick %d with deadline %d, \
              dispatch attempted at tick %d"
             it.submitted
             (Option.value it.deadline ~default:0)
             t.tick)
        ())
    dead;
  dispatched

(* Resolve: keep the first request of each key — a batch always holds
   the whole queue, so no key in it was stored before — and give each
   job its fingerprint and, when a near-matching job was computed
   before, that job's full result as a warm-start seed (found, or
   re-synthesized cold on the server thread). *)
let resolve_batch t dispatched =
  let same (a : job Job_queue.item) (b : job Job_queue.item) =
    a.payload.key = b.payload.key
  in
  List.fold_left
    (fun acc it -> if List.exists (same it) acc then acc else it :: acc)
    [] dispatched
  |> List.rev
  |> List.map (fun (it : job Job_queue.item) ->
         let fp = Store.fingerprint t.store it.payload in
         (it, fp, Option.bind fp (Store.near t.store it.payload)))

(* Compute: warm-start the seeded jobs on the pool; the rest, and every
   failed warm start, run cold through the dispatch hook or the pool.
   Returns one record per job, in plan order. *)
let compute t ~since plans =
  let attempts =
    Mfb_util.Pool.map ~label:"serve-warm" ~jobs:t.cfg.jobs
      (fun ((it : job Job_queue.item), fp, (cached, retained)) ->
        let job = it.payload in
        ( it,
          fp,
          retained,
          Mfb_repair.Warm.synthesize ~config:job.config ~cached
            ~delta:t.cfg.warm_delta job.graph job.allocation ))
      (List.filter_map
         (fun (it, fp, seed) -> Option.map (fun s -> (it, fp, s)) seed)
         plans)
  in
  (* like repairs: a warm start whose seed was retained costs 1 virtual
     tick, one whose seed was re-synthesized cold costs 2 *)
  let near =
    List.filter_map
      (fun (item, fp, retained, outcome) ->
        match outcome with
        | Error _ -> None
        | Ok (full, _) ->
          let latency =
            match t.cfg.clock with
            | `Virtual -> if retained then 1.0 else 2.0
            | `Wall -> (Unix.gettimeofday () -. since) *. 1000.0
          in
          Some
            { item; fp; payload = summary_of full; full = Some full;
              fleet = None; spans = []; path = Near latency })
      attempts
  in
  let cold =
    List.filter
      (fun (it, _, _) -> not (List.exists (fun c -> c.item == it) near))
      plans
  in
  let results =
    match t.cfg.dispatch with
    | Some dispatch ->
      let retries attempts slot = (slot, max 0 (attempts - 1)) in
      List.map
        (fun r ->
          (r.d_payload, None, Option.map (retries r.d_attempts) r.d_slot,
           r.d_spans))
        (dispatch
           (List.map (fun ((it : job Job_queue.item), _, _) -> it.payload)
              cold))
    | None ->
      (* Trace args are resolved on the server thread before fan-out so
         pool tasks never touch server state. *)
      Mfb_util.Pool.map ~label:"serve-job" ~jobs:t.cfg.jobs
        (fun (job, trace) ->
          let full = run_job_full ~trace job in
          (summary_of full, Some full, None, []))
        (List.map
           (fun ((it : job Job_queue.item), _, _) ->
             ( it.payload,
               [ ("rid", Telemetry.Str (req_info_of t it.id).rid);
                 ("key", Telemetry.Str (key_prefix it.payload.key)) ] ))
           cold)
  in
  let cold =
    List.map2
      (fun (item, fp, _) (payload, full, fleet, spans) ->
        let tried = List.exists (fun (it, _, _, _) -> it == item) attempts in
        { item; fp; payload; full; fleet; spans;
          path = (if tried then Fallback else Cold) })
      cold results
  in
  List.map
    (fun (it, _, _) -> List.find (fun c -> c.item == it) (near @ cold))
    plans

(* Publish: fill the store, then one pass over the batch in dispatch
   order writes each outcome and its observability.  A batch duplicate
   reads its payload from the exact tier, which counts the reuse as a
   hit. *)
let publish t dispatched computed =
  List.iter
    (fun c ->
      Store.record t.store c.item.payload ?fp:c.fp ~path:c.path c.payload
        c.full)
    computed;
  t.computed <- t.computed + List.length computed;
  List.iter
    (fun (it : job Job_queue.item) ->
      let job = it.payload in
      let c = List.find (fun c -> c.item.payload.key = job.key) computed in
      let owner = c.item == it in
      let payload =
        if owner then c.payload
        else Option.value (Store.exact t.store job.key) ~default:c.payload
      in
      Hashtbl.replace t.outcomes it.id (Done { key = job.key; payload });
      let info = take_info t it.id in
      let qw = queue_wait t it in
      Histogram.add t.h_queue_wait (float_of_int qw);
      (* batch duplicates share the fleet attribution; the worker span
         tree is grafted only under the computing request *)
      finish_request t ~rid:info.rid ~id:it.id ~job
        ~outcome:(match c.path with Near _ -> "near-hit" | _ -> "done")
        ~batch:t.tick ?fleet:c.fleet ~queue_ticks:qw ~compute_ticks:1
        ~worker_spans:(if owner then c.spans else [])
        ~latency:(latency_units t info ~total_ticks:(qw + 1))
        ())
    dispatched

let process_batch t =
  let since = Unix.gettimeofday () in
  let dispatched = admit t in
  publish t dispatched (compute t ~since (resolve_batch t dispatched))

(* Run batches until a still-queued [id] reaches its outcome. *)
let drain_until t id =
  while Job_queue.position t.queue id <> None do
    process_batch t
  done

(* --- stats --- *)

let stats_json t =
  let tiers = Store.tiers t.store in
  let used =
    List.filter_map
      (fun name ->
        Option.map (fun ss -> (name, Store.to_json ss)) (List.assoc name tiers))
      [ "near"; "repair" ]
  in
  Json.Obj
    ([
       ("tick", Json.Int t.tick);
       ("submitted", Json.Int t.submitted);
       ("computed", Json.Int t.computed);
       ( "cache",
         Option.fold ~none:Json.Null ~some:Store.to_json
           (List.assoc "cache" tiers) );
       ( "queue",
         Json.Obj
           [
             ("depth", Json.Int (Job_queue.depth t.queue));
             ("queued", Json.Int (Job_queue.length t.queue));
           ] );
       ( "shed",
         Json.Obj
           [
             ("deadline", Json.Int t.shed_deadline);
             ("displaced", Json.Int t.shed_displaced);
           ] );
       ("rejected", Json.Int t.rejected);
       ("latency", Histogram.snapshot_json t.h_latency);
       ("queue_wait", Histogram.snapshot_json t.h_queue_wait);
     ]
    @ used
    @ [
        ("jobs", Json.Int t.cfg.jobs);
        ("config", Mfb_core.Config.to_json t.cfg.flow_config);
      ]
    @ match t.cfg.extra_stats with None -> [] | Some f -> f ())

let latency_histogram t = t.h_latency

let queue_wait_histogram t = t.h_queue_wait

let near_hit_counts t = (t.store.near_hits, t.store.fallbacks)

(* Prometheus text exposition: server counters, the store's tiers, and
   the two rolling histograms; a fleet appends its per-slot series via
   [extra_prometheus].  Deterministic under the virtual clock. *)
let prometheus_stats t =
  let buf = Buffer.create 1024 in
  let tiers = Store.tiers t.store in
  let tier name =
    Option.iter (Store.to_prometheus buf) (List.assoc name tiers)
  in
  let metric = prom_metric buf in
  metric "counter" "dcsa_submitted_total" "accepted submissions" t.submitted;
  metric "counter" "dcsa_computed_total" "jobs synthesised (after dedup)"
    t.computed;
  Buffer.add_string buf
    (Printf.sprintf
       "# HELP dcsa_shed_total jobs shed before completion\n\
        # TYPE dcsa_shed_total counter\n\
        dcsa_shed_total{reason=\"deadline\"} %d\n\
        dcsa_shed_total{reason=\"displaced\"} %d\n"
       t.shed_deadline t.shed_displaced);
  metric "counter" "dcsa_rejected_total" "refused submissions" t.rejected;
  tier "cache";
  metric "gauge" "dcsa_tick" "virtual batch clock" t.tick;
  metric "gauge" "dcsa_queue_length" "jobs waiting in the queue"
    (Job_queue.length t.queue);
  Histogram.prometheus ~help:"request latency (ticks, or ms in wall mode)"
    ~name:"dcsa_request_latency" buf t.h_latency;
  Histogram.prometheus ~help:"queue wait (virtual ticks)"
    ~name:"dcsa_queue_wait_ticks" buf t.h_queue_wait;
  tier "near";
  tier "repair";
  (match t.cfg.extra_prometheus with None -> () | Some f -> f buf);
  (* scrapers require the body to end in a newline; guard against an
     extra_prometheus hook that forgot its terminator *)
  if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n'
  then Buffer.add_char buf '\n';
  Buffer.contents buf

(* Shutdown audit record: authoritative counter totals, independent of
   whether a telemetry sink was installed. *)
let totals_json t =
  let cache =
    match List.assoc "cache" (Store.tiers t.store) with
    | Some ss -> Store.to_json ~counters_only:true ss
    | None ->
      Json.Obj
        [ ("hits", Json.Int 0); ("misses", Json.Int 0);
          ("evictions", Json.Int 0) ]
  in
  let queue =
    Json.Obj
      [
        ("submitted", Json.Int t.submitted);
        ("computed", Json.Int t.computed);
        ("shed", Json.Int (t.shed_deadline + t.shed_displaced));
        ("rejected", Json.Int t.rejected);
      ]
  in
  let cluster =
    let extra = match t.cfg.extra_stats with None -> [] | Some f -> f () in
    let fields =
      match List.assoc_opt "cluster" extra with
      | Some (Json.Obj fs) -> fs
      | _ -> []
    in
    let geti k =
      match List.assoc_opt k fields with Some (Json.Int i) -> i | _ -> 0
    in
    Json.Obj
      [
        ("dispatched", Json.Int (geti "dispatched"));
        ("retries", Json.Int (geti "retries"));
        ("degraded", Json.Int (geti "degraded"));
        ("respawns", Json.Int (geti "respawns"));
      ]
  in
  Json.Obj [ ("cache", cache); ("queue", queue); ("cluster", cluster) ]

let goodbye_json t =
  match stats_json t with
  | Json.Obj fields -> Json.Obj (fields @ [ ("totals", totals_json t) ])
  | other -> other

(* --- request handling --- *)

(* Bookkeeping shared by every accepted submission, cache hit or queued. *)
let accept t ~rid ~id job =
  Hashtbl.replace t.ids id ();
  Hashtbl.replace t.specs id job;
  t.submitted <- t.submitted + 1;
  { rid; submit_tick = t.tick; submit_wall = Unix.gettimeofday () }

let handle_submit t ~id ~priority ~deadline ~flow ~spec ~overrides =
  let rid = next_rid t in
  let rejected ?job ~why reason =
    finish_request t ~rid ~id ?job ~outcome:"rejected" ~reason:why ();
    P.Rejected { op = "submit"; id; reason }
  in
  if Hashtbl.mem t.ids id then rejected ~why:"duplicate id" "duplicate id"
  else
    match resolve ~base:t.cfg.flow_config ~flow ~overrides spec with
    | Error reason ->
      t.rejected <- t.rejected + 1;
      rejected ~why:"invalid spec" reason
    | Ok job ->
      let submitted () = P.Submitted { id; key = Cache_key.to_hex job.key } in
      (match Store.exact t.store job.key with
       | Some payload ->
         let info = accept t ~rid ~id job in
         Hashtbl.replace t.outcomes id (Done { key = job.key; payload });
         finish_request t ~rid ~id ~job ~outcome:"hit"
           ~latency:(latency_units t info ~total_ticks:0)
           ();
         submitted ()
       | None ->
         (match
            Job_queue.submit t.queue ~now:t.tick ~id ~priority ?deadline job
          with
          | Job_queue.Refused reason ->
            t.rejected <- t.rejected + 1;
            Telemetry.incr ~cat:"serve" "rejected";
            rejected ~job ~why:"queue full" reason
          | admission ->
            (match admission with
             | Job_queue.Displaced victim ->
               t.shed_displaced <- t.shed_displaced + 1;
               Telemetry.incr ~cat:"serve" "shed.displaced";
               shed t victim ~why:"displaced"
                 ~reason:
                   (Printf.sprintf
                      "displaced by higher-priority submission %S" id)
                 ~queue_ticks:
                   (max 0 (t.tick - (req_info_of t victim.id).submit_tick))
                 ()
             | _ -> ());
            Hashtbl.replace t.req_info id (accept t ~rid ~id job);
            Telemetry.gauge ~cat:"serve" "queue.depth"
              (float_of_int (Job_queue.length t.queue));
            while Job_queue.length t.queue >= t.cfg.batch do
              process_batch t
            done;
            submitted ()))

(* --- defect repair ---

   A repair request names a previously accepted submission and a defect
   set, and answers with the {!Mfb_repair.Plan} report, warm-started
   from the target's full result in the store: one virtual tick when it
   was retained, two when it had to be re-synthesized cold first.  The
   report is a pure function of (job, defects) either way; cache
   temperature can only change latency, never bytes. *)

let handle_repair t ~id ~target ~defects =
  let rid = next_rid t in
  let wall0 = Unix.gettimeofday () in
  let rejected ?job ~why reason =
    finish_request t ~rid ~id ?job ~outcome:"rejected" ~reason:why ();
    P.Rejected { op = "repair"; id; reason }
  in
  if Hashtbl.mem t.ids id then rejected ~why:"duplicate id" "duplicate id"
  else begin
    (* a still-queued target is forced to an outcome first, exactly as a
       [result] request would *)
    drain_until t target;
    match Hashtbl.find_opt t.specs target with
    | None ->
      finish_request t ~rid ~id ~outcome:"rejected" ~reason:"unknown target"
        ();
      P.Bad_request
        { id = Some id;
          message = Printf.sprintf "unknown target id %S" target }
    | Some job ->
      (match Hashtbl.find_opt t.outcomes target with
       | Some (Shed reason) ->
         rejected ~job ~why:"target shed" ("target was shed: " ^ reason)
       | None -> rejected ~job ~why:"target pending" "target has no result yet"
       | Some (Done _) ->
         Hashtbl.replace t.ids id ();
         let full, warm = Store.full t.store job in
         let plan =
           List.map
             (fun tg -> { Mfb_repair.Defect.tick = 0; target = tg })
             defects
         in
         (match Mfb_repair.Defect.check full.Mfb_core.Result.chip plan with
          | Error reason -> rejected ~job ~why:"invalid defects" reason
          | Ok () ->
            let o =
              Telemetry.span ~cat:"serve"
                ~args:
                  [ ("rid", Telemetry.Str rid); ("id", Telemetry.Str id);
                    ("target", Telemetry.Str target);
                    ("key", Telemetry.Str (key_prefix job.key)) ]
                "request"
                (fun () ->
                  Mfb_repair.Plan.repair ~config:job.config full ~defects)
            in
            let errors =
              if o.Mfb_repair.Plan.report.survived then
                Mfb_repair.Plan.verify ~config:job.config ~defects o
              else []
            in
            (match errors with
             | err :: _ ->
               rejected ~job ~why:"illegal repair"
                 ("repair produced an illegal result: " ^ err)
             | [] ->
               let compute_ticks = if warm then 1 else 2 in
               Store.repaired t.store ~warm
                 (match t.cfg.clock with
                  | `Virtual -> float_of_int compute_ticks
                  | `Wall -> (Unix.gettimeofday () -. wall0) *. 1000.0);
               finish_request t ~rid ~id ~job
                 ~outcome:(if warm then "repair" else "repair-cold")
                 ~compute_ticks ();
               P.Repair_result
                 {
                   id;
                   target;
                   key = Cache_key.to_hex job.key;
                   warm;
                   report = Mfb_repair.Plan.report_to_json o.report;
                 })))
  end

let handle t req =
  match req with
  | P.Submit { id; priority; deadline; flow; spec; overrides; trace = _ } ->
    (* the serving tier assigns its own request ids; inbound trace
       context is only meaningful on the worker wire protocol *)
    handle_submit t ~id ~priority ~deadline ~flow ~spec ~overrides
  | P.Status id ->
    (match Hashtbl.find_opt t.outcomes id with
     | Some (Done _) -> P.Job_status { id; state = "done" }
     | Some (Shed _) -> P.Job_status { id; state = "shed" }
     | None ->
       if Job_queue.position t.queue id <> None then
         P.Job_status { id; state = "queued" }
       else P.Bad_request { id = Some id; message = "unknown id" })
  | P.Result id ->
    drain_until t id;
    (match Hashtbl.find_opt t.outcomes id with
     | Some (Done { key; payload }) ->
       P.Job_result
         { id; key = Cache_key.to_hex key; result = payload; spans = None }
     | Some (Shed reason) -> P.Rejected { op = "result"; id; reason }
     | None -> P.Bad_request { id = Some id; message = "unknown id" })
  | P.Repair { id; target; defects } -> handle_repair t ~id ~target ~defects
  | P.Stats -> P.Stats_reply (stats_json t)
  | P.Stats_prom -> P.Stats_text (prometheus_stats t)
  | P.Shutdown ->
    t.stopping <- true;
    (* drain in-flight jobs so the final stats snapshot accounts for
       every accepted submission (computed or shed, never dropped) *)
    while Job_queue.length t.queue > 0 do
      process_batch t
    done;
    P.Goodbye (goodbye_json t)

let handle_line t line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then None
  else
    let response =
      match P.request_of_line trimmed with
      | Error message -> P.Bad_request { id = None; message }
      | Ok req ->
        (match handle t req with
         | resp -> resp
         | exception exn ->
           P.Bad_request
             { id = None; message = "internal: " ^ Printexc.to_string exn })
    in
    Some (P.response_to_line response)

let serve ?(input = stdin) ?(output = stdout) t =
  (* A client that closes its read end between request and reply must
     surface as EPIPE on our write, never as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* true once the reply channel is gone: the dropped reply is logged
     and the loop stops — the work itself (cache fills, counters, access
     log) has already happened and is kept. *)
  let output_dead = ref false in
  let respond = function
    | None -> ()
    | Some resp ->
      (try
         output_string output resp;
         output_char output '\n';
         flush output
       with Sys_error _ | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
         output_dead := true;
         Printf.eprintf
           "dcsa-serve: client disconnected; dropped reply (%d bytes)\n%!"
           (String.length resp + 1))
  in
  let rec loop () =
    if not (t.stopping || !output_dead) then
      match P.input_line_bounded input with
      | P.Eof -> ()
      | P.Line line ->
        respond (handle_line t line);
        loop ()
      | P.Oversized len ->
        respond
          (Some
             (P.response_to_line
                (P.Bad_request
                   {
                     id = None;
                     message =
                       Printf.sprintf
                         "input line too long: %d bytes exceeds the %d-byte \
                          limit"
                         len P.default_max_line_bytes;
                   })));
        loop ()
  in
  loop ()
