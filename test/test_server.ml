(* Tests for the serving layer: content-addressed cache keys, the
   bounded priority queue, the wire protocol, and end-to-end server
   behaviour (cache transparency, admission control, determinism). *)

module Json = Mfb_util.Json
module Cache_key = Mfb_server.Cache_key
module Job_queue = Mfb_server.Job_queue
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Client = Mfb_server.Client
module Config = Mfb_core.Config
module Allocation = Mfb_component.Allocation

let qtest = Test_util.qtest

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let parse_assay text =
  match Mfb_bioassay.Assay_file.parse text with
  | Ok g -> g
  | Error e ->
    Alcotest.failf "assay parse: %a" Mfb_bioassay.Assay_file.pp_error e

(* --- cache-key canonicalization --- *)

(* One structural graph, five textual spellings. *)
let base_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

(* Same graph: comments, blank lines, tabs-as-spaces, shuffled line
   order. *)
let messy_assay =
  "# a comment\n\
   assay \"t\"\n\
   fluid b 1e-6\n\
   fluid a 4e-7\n\
   \n\
   edge 1 2\n\
   op 2   detect   3   a    # trailing comment\n\
   op 0 mix 5 a\n\
   \n\
   edge 0 1\n\
   op 1 heat 4 b\n"

(* Same graph with the dense operation ids permuted 0->2, 1->0, 2->1:
   the op named 2 is now the mix, edges follow the relabelling. *)
let relabelled_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 2 mix 5 a\n\
   op 0 heat 4 b\n\
   op 1 detect 3 a\n\
   edge 2 0\n\
   edge 0 1\n"

let diffusion_assay =
  "assay \"t\"\n\
   fluid a 5e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

let duration_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 6 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

let structure_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 0 2\n"

let key_of ?(flow = "ours") ?(config = Config.default) ?allocation text =
  let graph = parse_assay text in
  let allocation =
    match allocation with
    | Some a -> a
    | None -> Allocation.minimal_for (parse_assay base_assay)
  in
  Cache_key.make ~flow ~config ~graph ~allocation ()

let test_key_textual_invariance () =
  let base = key_of base_assay in
  Alcotest.(check bool)
    "whitespace/comments/line order" true
    (Cache_key.equal base (key_of messy_assay));
  Alcotest.(check bool)
    "op-id relabelling" true
    (Cache_key.equal base (key_of relabelled_assay));
  Alcotest.(check bool)
    "fingerprints agree" true
    (Cache_key.graph_fingerprint (parse_assay base_assay)
    = Cache_key.graph_fingerprint (parse_assay relabelled_assay))

let test_key_content_sensitivity () =
  let base = key_of base_assay in
  let differs name k =
    Alcotest.(check bool) name false (Cache_key.equal base k)
  in
  differs "diffusion coefficient" (key_of diffusion_assay);
  differs "op duration" (key_of duration_assay);
  differs "graph structure" (key_of structure_assay);
  differs "flow" (key_of ~flow:"ba" base_assay);
  differs "allocation"
    (key_of ~allocation:(Allocation.of_vector (2, 1, 0, 1)) base_assay);
  Alcotest.(check bool)
    "structure fingerprint differs" false
    (Cache_key.graph_fingerprint (parse_assay base_assay)
    = Cache_key.graph_fingerprint (parse_assay structure_assay))

let test_key_config_sensitivity () =
  let base = key_of base_assay in
  let differs name config =
    Alcotest.(check bool) name false
      (Cache_key.equal base (key_of ~config base_assay))
  in
  differs "tc" { Config.default with tc = 3.0 };
  differs "we" { Config.default with we = 11.0 };
  differs "beta" { Config.default with beta = 0.5 };
  differs "gamma" { Config.default with gamma = 0.5 };
  differs "seed" { Config.default with seed = 43 };
  differs "sa_restarts" { Config.default with sa_restarts = 2 };
  differs "sa params"
    {
      Config.default with
      sa = { Config.default.sa with Mfb_place.Annealer.i_max = 151 };
    };
  differs "backend" { Config.default with backend = Mfb_schedule.Portfolio.Exact };
  differs "exact_fuel" { Config.default with exact_fuel = 1_000 }

let test_key_backend_sensitivity () =
  (* Regression for the backend-blind key: every backend must key its
     own cache slot, or an exact request would replay a heuristic
     result. *)
  let key backend = key_of ~config:{ Config.default with backend } base_assay in
  let all = List.map key Mfb_schedule.Portfolio.all_backends in
  List.iteri
    (fun i ki ->
      List.iteri
        (fun j kj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "backend %d vs %d" i j)
              false (Cache_key.equal ki kj))
        all)
    all

let test_key_hex_stable () =
  let k = key_of base_assay in
  Alcotest.(check string) "hex is hex" (Cache_key.to_hex k)
    (Cache_key.to_hex (key_of messy_assay));
  Alcotest.(check int) "16 nibbles" 16 (String.length (Cache_key.to_hex k))

(* --- job queue --- *)

let submit_ok q ~now ~id ~priority ?deadline payload =
  match Job_queue.submit q ~now ~id ~priority ?deadline payload with
  | Job_queue.Admitted -> ()
  | Job_queue.Displaced _ -> Alcotest.failf "%s unexpectedly displaced" id
  | Job_queue.Refused r -> Alcotest.failf "%s refused: %s" id r

let ids items = List.map (fun (it : _ Job_queue.item) -> it.Job_queue.id) items

let test_queue_dispatch_order () =
  let q = Job_queue.create ~depth:8 () in
  submit_ok q ~now:0 ~id:"a" ~priority:0 ();
  submit_ok q ~now:0 ~id:"b" ~priority:5 ();
  submit_ok q ~now:0 ~id:"c" ~priority:0 ();
  submit_ok q ~now:0 ~id:"d" ~priority:5 ();
  Alcotest.(check (list string))
    "priority desc, FIFO within" [ "b"; "d"; "a"; "c" ]
    (ids (Job_queue.queued q));
  Alcotest.(check bool) "position of a" true (Job_queue.position q "a" = Some 2);
  Alcotest.(check bool) "absent id" true (Job_queue.position q "z" = None);
  let dispatched, expired = Job_queue.pop_batch q ~now:1 ~max:3 in
  Alcotest.(check (list string)) "batch" [ "b"; "d"; "a" ] (ids dispatched);
  Alcotest.(check int) "nothing expired" 0 (List.length expired);
  Alcotest.(check int) "c remains" 1 (Job_queue.length q)

let test_queue_admission () =
  let q = Job_queue.create ~depth:2 () in
  submit_ok q ~now:0 ~id:"a" ~priority:1 ();
  submit_ok q ~now:0 ~id:"b" ~priority:0 ();
  (match Job_queue.submit q ~now:0 ~id:"c" ~priority:0 () with
   | Job_queue.Refused _ -> ()
   | _ -> Alcotest.fail "equal-priority submit to full queue must refuse");
  (match Job_queue.submit q ~now:0 ~id:"d" ~priority:2 () with
   | Job_queue.Displaced shed ->
     Alcotest.(check string) "weakest shed" "b" shed.Job_queue.id
   | _ -> Alcotest.fail "higher-priority submit must displace");
  Alcotest.(check (list string))
    "queue after displacement" [ "d"; "a" ]
    (ids (Job_queue.queued q));
  Alcotest.check_raises "depth < 1"
    (Invalid_argument "Job_queue.create: depth < 1") (fun () ->
      ignore (Job_queue.create ~depth:0 ()))

let test_queue_deadlines () =
  let q = Job_queue.create ~depth:8 () in
  submit_ok q ~now:0 ~id:"a" ~priority:0 ~deadline:0 ();
  submit_ok q ~now:0 ~id:"b" ~priority:0 ~deadline:5 ();
  submit_ok q ~now:0 ~id:"c" ~priority:0 ();
  let dispatched, expired = Job_queue.pop_batch q ~now:1 ~max:10 in
  Alcotest.(check (list string)) "a expired" [ "a" ] (ids expired);
  Alcotest.(check (list string)) "b,c dispatched" [ "b"; "c" ] (ids dispatched);
  (* expired jobs do not consume batch slots *)
  let q2 = Job_queue.create ~depth:8 () in
  submit_ok q2 ~now:0 ~id:"x" ~priority:9 ~deadline:0 ();
  submit_ok q2 ~now:0 ~id:"y" ~priority:0 ();
  let dispatched, expired = Job_queue.pop_batch q2 ~now:1 ~max:1 in
  Alcotest.(check (list string)) "x expired" [ "x" ] (ids expired);
  Alcotest.(check (list string)) "y still dispatched" [ "y" ] (ids dispatched)

(* --- protocol --- *)

let sample_requests =
  [
    P.Submit
      {
        id = "r1";
        priority = 0;
        deadline = None;
        flow = `Ours;
        spec = P.Benchmark "PCR";
        overrides = P.no_overrides;
        trace = None;
      };
    P.Submit
      {
        id = "r2";
        priority = 7;
        deadline = Some 3;
        flow = `Ba;
        spec = P.Assay { text = base_assay; alloc = Some (2, 1, 0, 1) };
        overrides = { P.no_overrides with o_seed = Some 9; o_tc = Some 1.5; o_sa_restarts = Some 2 };
        trace = Some "w0";
      };
    P.Submit
      {
        id = "r3";
        priority = 0;
        deadline = None;
        flow = `Ours;
        spec = P.Benchmark "PCR";
        overrides =
          { P.no_overrides with
            o_backend = Some Mfb_schedule.Portfolio.Portfolio };
        trace = None;
      };
    P.Status "r1";
    P.Result "r2";
    P.Repair
      {
        id = "p1";
        target = "r1";
        defects =
          [ Mfb_repair.Defect.Cell (3, 4); Mfb_repair.Defect.Component 2 ];
      };
    P.Stats;
    P.Stats_prom;
    P.Shutdown;
  ]

let sample_responses =
  [
    P.Submitted { id = "r1"; key = "00ff00ff00ff00ff" };
    P.Rejected { op = "submit"; id = "r9"; reason = "queue full" };
    P.Job_status { id = "r1"; state = "queued" };
    P.Job_result
      { id = "r2"; key = "00ff00ff00ff00ff"; result = Json.Obj [ ("x", Json.Int 1) ];
        spans = None };
    P.Job_result
      { id = "r4"; key = "00ff00ff00ff00ff"; result = Json.Obj [ ("x", Json.Int 1) ];
        spans = Some (Json.List [ Json.Obj [ ("name", Json.String "request") ] ]) };
    P.Repair_result
      {
        id = "p1";
        target = "r1";
        key = "00ff00ff00ff00ff";
        warm = true;
        report = Json.Obj [ ("survived", Json.Bool true) ];
      };
    P.Stats_text "# HELP dcsa_tick virtual tick\n";
    P.Stats_reply (Json.Obj [ ("submitted", Json.Int 3) ]);
    P.Goodbye Json.Null;
    P.Bad_request { id = None; message = "not json" };
    P.Bad_request { id = Some "r3"; message = "unknown id" };
  ]

let test_protocol_request_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (P.request_to_line r) true
        (P.request_of_line (P.request_to_line r) = Ok r))
    sample_requests

let test_protocol_response_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (P.response_to_line r) true
        (P.response_of_line (P.response_to_line r) = Ok r))
    sample_responses

let test_protocol_malformed () =
  let is_error = function Error _ -> true | Ok _ -> false in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (is_error (P.request_of_line line)))
    [
      "nonsense";
      "{}";
      {|{"op":"fly"}|};
      {|{"op":"submit"}|};
      {|{"op":"submit","id":"a"}|};
      {|{"op":"submit","id":"a","benchmark":"PCR","assay":"x"}|};
      {|{"op":"submit","id":"a","benchmark":"PCR","priority":"high"}|};
      {|{"op":"repair","id":"p1"}|};
      {|{"op":"repair","id":"p1","target":"a","defects":[]}|};
      {|{"op":"repair","id":"p1","target":"a","defects":[{"kind":"hole"}]}|};
      {|{"op":"status"}|};
      {|[1,2]|};
    ]

(* --- server behaviour --- *)

let server ?(jobs = 1) ?(cache = 128) ?(depth = 64) ?(batch = 8)
    ?(repair_cache = 8) ?(similarity = false) ?dispatch ?extra_stats
    ?access_log ?slow_threshold () =
  Server.create
    {
      Server.default_config with
      jobs;
      cache_capacity = cache;
      queue_depth = depth;
      batch;
      repair_cache;
      similarity;
      flow_config = Config.default;
      dispatch;
      extra_stats;
      access_log;
      slow_threshold;
    }

let call_exn client req =
  match Client.call client req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "call failed: %s" e

let submit ?(priority = 0) ?deadline ?(seed = None) ~id spec =
  P.Submit
    {
      id;
      priority;
      deadline;
      flow = `Ours;
      spec;
      overrides = { P.no_overrides with P.o_seed = seed };
      trace = None;
    }

let pcr = P.Benchmark "PCR"

let test_server_cache_hit_identical () =
  let s = server () in
  let c = Client.in_process s in
  (match call_exn c (submit ~id:"a" pcr) with
   | P.Submitted _ -> ()
   | r -> Alcotest.failf "submit: %s" (P.response_to_line r));
  let r1 =
    match call_exn c (P.Result "a") with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result: %s" (P.response_to_line r)
  in
  ignore (call_exn c (submit ~id:"b" pcr));
  let r2 =
    match call_exn c (P.Result "b") with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result: %s" (P.response_to_line r)
  in
  Alcotest.(check string) "byte-identical payload" r1 r2;
  match call_exn c P.Stats with
  | P.Stats_reply stats ->
    let get path =
      List.fold_left
        (fun j k -> Option.bind j (Json.member k))
        (Some stats) path
    in
    Alcotest.(check bool) "one compute" true
      (get [ "computed" ] = Some (Json.Int 1));
    Alcotest.(check bool) "one hit" true
      (get [ "cache"; "hits" ] = Some (Json.Int 1))
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

let test_server_backend_cache_not_shared () =
  (* Regression: before the backend reached Cache_key, an exact request
     structurally identical to a cached heuristic one replayed the
     heuristic's result.  Now it must miss, recompute, and answer with
     the (better) exact schedule. *)
  let s = server () in
  let c = Client.in_process s in
  let submit_backend ~id o_backend =
    P.Submit
      {
        id;
        priority = 0;
        deadline = None;
        flow = `Ours;
        spec = pcr;
        overrides = { P.no_overrides with o_backend };
        trace = None;
      }
  in
  let key id req =
    match call_exn c req with
    | P.Submitted { key; _ } -> key
    | r -> Alcotest.failf "submit %s: %s" id (P.response_to_line r)
  in
  let k_heur = key "h" (submit_backend ~id:"h" None) in
  let k_exact =
    key "e" (submit_backend ~id:"e" (Some Mfb_schedule.Portfolio.Exact))
  in
  Alcotest.(check bool) "distinct cache keys" false
    (String.equal k_heur k_exact);
  let result id =
    match call_exn c (P.Result id) with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result %s: %s" id (P.response_to_line r)
  in
  let r_heur = result "h" in
  let r_exact = result "e" in
  Alcotest.(check bool) "exact payload is not the cached heuristic one"
    false
    (String.equal r_heur r_exact);
  match call_exn c P.Stats with
  | P.Stats_reply stats ->
    let get path =
      List.fold_left
        (fun j k -> Option.bind j (Json.member k))
        (Some stats) path
    in
    Alcotest.(check bool) "both requests computed" true
      (get [ "computed" ] = Some (Json.Int 2));
    Alcotest.(check bool) "no cross-backend cache hit" true
      (get [ "cache"; "hits" ] = Some (Json.Int 0))
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

let test_server_handle_line_hygiene () =
  let s = server () in
  Alcotest.(check bool) "blank" true (Server.handle_line s "   " = None);
  Alcotest.(check bool) "comment" true
    (Server.handle_line s "# warm-up note" = None);
  (match Server.handle_line s "{oops" with
   | Some line ->
     (match P.response_of_line line with
      | Ok (P.Bad_request _) -> ()
      | _ -> Alcotest.failf "expected error response, got %s" line)
   | None -> Alcotest.fail "malformed line must produce a response");
  match Server.handle_line s {|{"op":"shutdown"}|} with
  | Some _ -> Alcotest.(check bool) "stopping" true (Server.shutting_down s)
  | None -> Alcotest.fail "shutdown must answer"

let test_server_rejections () =
  let s = server () in
  let c = Client.in_process s in
  (match call_exn c (submit ~id:"a" (P.Benchmark "NOPE")) with
   | P.Rejected { reason; _ } ->
     Alcotest.(check bool) "reason names benchmark" true
       (contains ~sub:"NOPE" reason)
   | r -> Alcotest.failf "unknown benchmark: %s" (P.response_to_line r));
  ignore (call_exn c (submit ~id:"dup" pcr));
  (match call_exn c (submit ~id:"dup" pcr) with
   | P.Rejected { reason = "duplicate id"; _ } -> ()
   | r -> Alcotest.failf "duplicate id: %s" (P.response_to_line r));
  (match call_exn c (P.Result "ghost") with
   | P.Bad_request { id = Some "ghost"; _ } -> ()
   | r -> Alcotest.failf "unknown result: %s" (P.response_to_line r));
  match call_exn c (P.Status "ghost") with
  | P.Bad_request _ -> ()
  | r -> Alcotest.failf "unknown status: %s" (P.response_to_line r)

(* Out-of-range numbers are refused at admission with a reason, and the
   healthy job sharing their batch still completes: one access-log
   record per submission, each refusal counted. *)
let test_server_bounds_numeric_input () =
  let path = Filename.temp_file "bounds" ".jsonl" in
  let oc = open_out path in
  let s = server ~access_log:oc () in
  let assay lines =
    "\"assay\":" ^ Json.to_string (Json.String (String.concat "\n" lines))
  in
  (* (id, request fields, what the rejection reason must name) *)
  let bad =
    [ ("bad", {|"benchmark":"IVD","tc":1e308|}, "Config");
      ("inf", {|"benchmark":"IVD","tc":1e999|}, "Config");
      ("work", {|"benchmark":"IVD","sa_restarts":100000000|}, "Config");
      ( "long",
        assay
          [ {|assay "long"|}; "fluid a 1e-06"; "fluid b 1e-06";
            "op 0 mix 1e308 a"; "op 1 mix 1e308 b" ],
        "line 4: Operation.make" );
      ( "wash",
        assay
          [ {|assay "wash"|}; "fluid a 1e-08 1e308"; "fluid b 1e-06";
            "op 0 mix 5 a"; "op 1 mix 5 b"; "edge 0 1" ],
        "line 2: Fluid.with_wash_time" ) ]
  in
  let answer line =
    match Server.handle_line s line with
    | Some l ->
      (match P.response_of_line l with
       | Ok r -> r
       | Error e -> Alcotest.failf "unparsable reply (%s): %s" e l)
    | None -> Alcotest.failf "no reply to %s" line
  in
  (match answer {|{"op":"submit","id":"ok1","benchmark":"PCR"}|} with
   | P.Submitted _ -> ()
   | r -> Alcotest.failf "ok1: %s" (P.response_to_line r));
  List.iter
    (fun (id, fields, why) ->
      match
        answer (Printf.sprintf {|{"op":"submit","id":"%s",%s}|} id fields)
      with
      | P.Rejected { op = "submit"; id = rid; reason } ->
        Alcotest.(check string) "rejected id" id rid;
        Alcotest.(check bool) (id ^ ": reason given") true
          (contains ~sub:why reason)
      | r -> Alcotest.failf "%s accepted: %s" id (P.response_to_line r))
    bad;
  (match answer {|{"op":"result","id":"ok1"}|} with
   | P.Job_result { id = "ok1"; _ } -> ()
   | r -> Alcotest.failf "ok1 result: %s" (P.response_to_line r));
  let stats = Server.stats_json s in
  close_out oc;
  let log = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let records = String.split_on_char '\n' (String.trim log) in
  Alcotest.(check int) "one access record per submission"
    (1 + List.length bad) (List.length records);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (id ^ " logged once")
        1
        (List.length
           (List.filter (contains ~sub:(Printf.sprintf {|"id":"%s"|} id))
              records)))
    ("ok1" :: List.map (fun (id, _, _) -> id) bad);
  Alcotest.(check bool) "rejections counted" true
    (Json.member "rejected" stats = Some (Json.Int (List.length bad)));
  Alcotest.(check bool) "ok1 computed" true
    (Json.member "computed" stats = Some (Json.Int 1))

let test_server_admission_and_shedding () =
  (* batch larger than anything we queue: dispatch only on demand *)
  let s = server ~depth:2 ~batch:50 () in
  let c = Client.in_process s in
  let seed n = Some n in
  ignore (call_exn c (submit ~id:"a" ~seed:(seed 1) pcr));
  ignore (call_exn c (submit ~id:"b" ~seed:(seed 2) pcr));
  (match call_exn c (submit ~id:"c" ~seed:(seed 3) pcr) with
   | P.Rejected { op = "submit"; id = "c"; _ } -> ()
   | r -> Alcotest.failf "overflow submit: %s" (P.response_to_line r));
  (match call_exn c (submit ~id:"d" ~priority:3 ~seed:(seed 4) pcr) with
   | P.Submitted { id = "d"; _ } -> ()
   | r -> Alcotest.failf "priority submit: %s" (P.response_to_line r));
  (* "b" (lowest priority, latest) was displaced to admit "d" *)
  (match call_exn c (P.Status "b") with
   | P.Job_status { state = "shed"; _ } -> ()
   | r -> Alcotest.failf "displaced status: %s" (P.response_to_line r));
  (match call_exn c (P.Result "b") with
   | P.Rejected { op = "result"; id = "b"; reason } ->
     Alcotest.(check bool) "reason mentions displacement" true
       (contains ~sub:"displaced" reason)
   | r -> Alcotest.failf "displaced result: %s" (P.response_to_line r));
  (match call_exn c (P.Status "a") with
   | P.Job_status { state = "queued"; _ } -> ()
   | r -> Alcotest.failf "queued status: %s" (P.response_to_line r));
  (match call_exn c (P.Result "a") with
   | P.Job_result _ -> ()
   | r -> Alcotest.failf "queued result: %s" (P.response_to_line r));
  match call_exn c (P.Status "a") with
  | P.Job_status { state = "done"; _ } -> ()
  | r -> Alcotest.failf "done status: %s" (P.response_to_line r)

let test_server_deadline_shed () =
  let s = server ~batch:3 () in
  let c = Client.in_process s in
  ignore (call_exn c (submit ~id:"a" ~seed:(Some 1) pcr));
  ignore (call_exn c (submit ~id:"b" ~deadline:0 ~seed:(Some 2) pcr));
  (* third submission fills the batch and triggers dispatch at tick 1,
     past b's deadline of tick 0 *)
  ignore (call_exn c (submit ~id:"c" ~seed:(Some 3) pcr));
  (match call_exn c (P.Status "b") with
   | P.Job_status { state = "shed"; _ } -> ()
   | r -> Alcotest.failf "deadline status: %s" (P.response_to_line r));
  (match call_exn c (P.Result "b") with
   | P.Rejected { reason; _ } ->
     Alcotest.(check bool) "reason mentions deadline" true
       (contains ~sub:"deadline" reason)
   | r -> Alcotest.failf "deadline result: %s" (P.response_to_line r));
  List.iter
    (fun id ->
      match call_exn c (P.Result id) with
      | P.Job_result _ -> ()
      | r -> Alcotest.failf "%s result: %s" id (P.response_to_line r))
    [ "a"; "c" ]

(* --- bounded line reading --- *)

let with_input text f =
  let path = Filename.temp_file "bounded" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      In_channel.with_open_text path f)

let test_bounded_reader_lines () =
  with_input "alpha\nbeta\n" (fun ic ->
      Alcotest.(check bool) "first" true
        (P.input_line_bounded ic = P.Line "alpha");
      Alcotest.(check bool) "second" true
        (P.input_line_bounded ic = P.Line "beta");
      Alcotest.(check bool) "eof" true (P.input_line_bounded ic = P.Eof));
  with_input "" (fun ic ->
      Alcotest.(check bool) "empty input" true (P.input_line_bounded ic = P.Eof))

let test_bounded_reader_partial_line_at_eof () =
  with_input "complete\npartial" (fun ic ->
      Alcotest.(check bool) "complete" true
        (P.input_line_bounded ic = P.Line "complete");
      Alcotest.(check bool) "partial still surfaces" true
        (P.input_line_bounded ic = P.Line "partial");
      Alcotest.(check bool) "then eof" true (P.input_line_bounded ic = P.Eof))

let test_bounded_reader_oversized_resyncs () =
  let big = String.make 100 'x' in
  with_input (big ^ "\nnext\n") (fun ic ->
      (* the oversized line is consumed whole: its length is reported
         and the following line is read intact *)
      Alcotest.(check bool) "oversized with length" true
        (P.input_line_bounded ~max_bytes:10 ic = P.Oversized 100);
      Alcotest.(check bool) "resynced" true
        (P.input_line_bounded ~max_bytes:10 ic = P.Line "next"));
  (* a line of exactly max_bytes is not oversized *)
  with_input "1234567890\n" (fun ic ->
      Alcotest.(check bool) "at the cap" true
        (P.input_line_bounded ~max_bytes:10 ic = P.Line "1234567890"));
  (* oversized at EOF without a trailing newline still reports *)
  with_input (String.make 20 'y') (fun ic ->
      Alcotest.(check bool) "oversized at eof" true
        (P.input_line_bounded ~max_bytes:10 ic = P.Oversized 20))

let test_serve_answers_oversized_line () =
  (* end to end: an oversized request line gets a structured error and
     the server keeps serving the next request *)
  let s = server () in
  let big =
    Printf.sprintf {|{"op":"submit","id":"big","assay":"%s"}|}
      (String.make (P.default_max_line_bytes + 64) 'a')
  in
  let script = big ^ "\n" ^ {|{"op":"stats"}|} ^ "\n{\"op\":\"shutdown\"}\n" in
  let out_path = Filename.temp_file "serve_out" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out_path)
    (fun () ->
      with_input script (fun input ->
          Out_channel.with_open_text out_path (fun output ->
              Server.serve ~input ~output s));
      let lines =
        In_channel.with_open_text out_path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      match lines with
      | [ err; stats; goodbye ] ->
        (match P.response_of_line err with
         | Ok (P.Bad_request { message; _ }) ->
           Alcotest.(check bool) "says too long" true
             (contains ~sub:"too long" message)
         | _ -> Alcotest.fail "expected a bad-request error");
        (match P.response_of_line stats with
         | Ok (P.Stats_reply _) -> ()
         | _ -> Alcotest.fail "server must keep serving after oversized");
        (match P.response_of_line goodbye with
         | Ok (P.Goodbye _) -> ()
         | _ -> Alcotest.fail "expected goodbye")
      | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines))

(* --- shutdown drains in-flight jobs --- *)

let test_shutdown_drains_queue () =
  let s = server ~batch:8 () in
  let c = Client.in_process s in
  (* three distinct jobs, below the batch threshold: all still queued *)
  List.iter
    (fun (id, seed) ->
      match call_exn c (submit ~id ~seed:(Some seed) pcr) with
      | P.Submitted _ -> ()
      | r -> Alcotest.failf "submit: %s" (P.response_to_line r))
    [ ("a", 1); ("b", 2); ("c", 3) ];
  (match call_exn c P.Shutdown with
   | P.Goodbye stats ->
     let member path =
       match Json.member path stats with
       | Some v -> v
       | None -> Alcotest.failf "missing stats field %s" path
     in
     (match member "queue" with
      | Json.Obj q ->
        Alcotest.(check bool) "queue drained" true
          (List.assoc_opt "queued" q = Some (Json.Int 0))
      | _ -> Alcotest.fail "queue stats not an object");
     Alcotest.(check bool) "all three computed" true
       (member "computed" = Json.Int 3)
   | r -> Alcotest.failf "shutdown: %s" (P.response_to_line r));
  (* the drained results are actually there *)
  List.iter
    (fun id ->
      match call_exn c (P.Result id) with
      | P.Job_result _ -> ()
      | r -> Alcotest.failf "%s after drain: %s" id (P.response_to_line r))
    [ "a"; "b"; "c" ]

(* --- dispatch and extra_stats hooks --- *)

let test_dispatch_hook_is_answer_transparent () =
  let calls = ref 0 in
  let dispatch jobs =
    incr calls;
    List.map
      (fun job ->
        {
          Server.d_payload = Server.run_job job;
          d_slot = Some 0;
          d_attempts = 1;
          d_spans = [];
        })
      jobs
  in
  let lines =
    List.map P.request_to_line
      [
        submit ~id:"h0" ~seed:(Some 0) pcr;
        submit ~id:"h1" ~seed:(Some 1) pcr;
        submit ~id:"h2" ~seed:(Some 0) pcr;
        P.Result "h0"; P.Result "h1"; P.Result "h2";
      ]
  in
  let run_script s lines = List.filter_map (Server.handle_line s) lines in
  let hooked = run_script (server ~batch:2 ~dispatch ()) lines in
  let plain = run_script (server ~batch:2 ()) lines in
  Alcotest.(check (list string)) "hooked = in-process" plain hooked;
  Alcotest.(check bool) "hook ran" true (!calls > 0)

let test_extra_stats_appended () =
  let extra_stats () = [ ("cluster", Json.Obj [ ("fleet", Json.Int 2) ]) ] in
  let s = server ~extra_stats () in
  (match Server.handle s P.Stats with
   | P.Stats_reply stats ->
     Alcotest.(check bool) "extra field present" true
       (Json.member "cluster" stats
       = Some (Json.Obj [ ("fleet", Json.Int 2) ]))
   | r -> Alcotest.failf "stats: %s" (P.response_to_line r));
  (* without the hook the stats payload has no such field *)
  match Server.handle (server ()) P.Stats with
  | P.Stats_reply stats ->
    Alcotest.(check bool) "absent by default" true
      (Json.member "cluster" stats = None)
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

(* --- observability: access log, prometheus exposition, goodbye totals --- *)

let with_access_log ?slow_threshold ~jobs lines =
  let path = Filename.temp_file "access" ".jsonl" in
  let oc = open_out path in
  let s = server ~jobs ~batch:4 ~access_log:oc ?slow_threshold () in
  let responses = List.filter_map (Server.handle_line s) lines in
  ignore (Server.handle s P.Shutdown);
  close_out oc;
  let log = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (responses, log)

let obs_script =
  List.map P.request_to_line
    [
      submit ~id:"a" ~seed:(Some 1) pcr;
      submit ~id:"b" ~seed:(Some 2) pcr;
      submit ~id:"c" ~seed:(Some 1) pcr;
      (* duplicate id: rejected, still logged *)
      submit ~id:"a" ~seed:(Some 3) pcr;
      P.Result "a"; P.Result "b"; P.Result "c";
    ]

let test_access_log_deterministic_across_jobs () =
  let r1, log1 = with_access_log ~jobs:1 obs_script in
  let r2, log2 = with_access_log ~jobs:2 obs_script in
  Alcotest.(check (list string)) "responses jobs=1 = jobs=2" r1 r2;
  Alcotest.(check string) "access log bytes jobs=1 = jobs=2" log1 log2;
  let lines = String.split_on_char '\n' (String.trim log1) in
  Alcotest.(check int) "one record per submit" 4 (List.length lines);
  (* the duplicate-id rejection must not release the queued original's
     request id *)
  Alcotest.(check bool) "every record keeps its request id" false
    (List.exists (contains ~sub:{|"rid":"-"|}) lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok doc ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "field %s present" k)
              true
              (Json.member k doc <> None))
          [ "rid"; "id"; "key"; "backend"; "outcome"; "queue_ticks";
            "compute_ticks"; "total_ticks" ]
      | Error e -> Alcotest.failf "access record not JSON (%s): %s" e line)
    lines

let test_access_log_slow_spans () =
  (* threshold 0: every request is "slow", so every computed/hit record
     embeds its span tree; rejected records never do *)
  let _, log = with_access_log ~slow_threshold:0.0 ~jobs:1 obs_script in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok doc ->
        let outcome = Json.member "outcome" doc in
        let has_spans = Json.member "spans" doc <> None in
        if outcome = Some (Json.String "rejected") then
          Alcotest.(check bool) "rejected: no spans" false has_spans
        else Alcotest.(check bool) "slow record has spans" true has_spans
      | Error e -> Alcotest.failf "access record not JSON: %s" e)
    (String.split_on_char '\n' (String.trim log))

let test_prometheus_exposition () =
  let s = server () in
  let c = Client.in_process s in
  ignore (call_exn c (submit ~id:"a" pcr));
  ignore (call_exn c (P.Result "a"));
  ignore (call_exn c (submit ~id:"b" pcr));
  ignore (call_exn c (P.Result "b"));
  match call_exn c P.Stats_prom with
  | P.Stats_text text ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true
          (let n = String.length sub in
           let rec scan i =
             i + n <= String.length text
             && (String.sub text i n = sub || scan (i + 1))
           in
           scan 0))
      [
        "# TYPE dcsa_submitted_total counter";
        "dcsa_submitted_total 2";
        "dcsa_cache_hits_total 1";
        "dcsa_request_latency_bucket{le=\"+Inf\"} 2";
        "dcsa_request_latency_count 2";
        "dcsa_queue_wait_ticks_count 1";
      ]
  | r -> Alcotest.failf "stats_prom: %s" (P.response_to_line r)

let test_goodbye_totals () =
  let s = server () in
  let c = Client.in_process s in
  ignore (call_exn c (submit ~id:"a" pcr));
  ignore (call_exn c (P.Result "a"));
  ignore (call_exn c (submit ~id:"b" pcr));
  match call_exn c P.Shutdown with
  | P.Goodbye stats ->
    let totals =
      match Json.member "totals" stats with
      | Some t -> t
      | None -> Alcotest.fail "goodbye missing totals"
    in
    let get path =
      List.fold_left
        (fun j k -> Option.bind j (Json.member k))
        (Some totals) path
    in
    Alcotest.(check bool) "cache hits total" true
      (get [ "cache"; "hits" ] = Some (Json.Int 1));
    Alcotest.(check bool) "queue submitted total" true
      (get [ "queue"; "submitted" ] = Some (Json.Int 2));
    Alcotest.(check bool) "cluster dispatched total" true
      (get [ "cluster"; "dispatched" ] = Some (Json.Int 0))
  | r -> Alcotest.failf "shutdown: %s" (P.response_to_line r)

let test_latency_histogram_tracks_requests () =
  let s = server () in
  let c = Client.in_process s in
  ignore (call_exn c (submit ~id:"a" pcr));
  ignore (call_exn c (P.Result "a"));
  ignore (call_exn c (submit ~id:"b" pcr));
  ignore (call_exn c (P.Result "b"));
  let h = Server.latency_histogram s in
  Alcotest.(check int) "two latencies" 2 (Mfb_util.Histogram.count h);
  (* virtual clock: the cache hit costs 0 ticks, the compute at least 1 *)
  Alcotest.(check (float 1e-9)) "min latency 0 ticks (hit)" 0.0
    (Mfb_util.Histogram.min_value h);
  Alcotest.(check bool) "max latency >= 1 tick (compute)" true
    (Mfb_util.Histogram.max_value h >= 1.0)

(* A numeric stats field by path; Int and Float read alike. *)
let stat stats path =
  match
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats) path
  with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Alcotest.failf "stats lack %s" (String.concat "." path)

(* --- the repair op --- *)

module Defect = Mfb_repair.Defect

let repair_reply = function
  | P.Repair_result { report; warm; _ } -> (Json.to_string report, warm)
  | r -> Alcotest.failf "repair: %s" (P.response_to_line r)

let test_server_repair_warm_cold_identical () =
  let run ~repair_cache =
    let s = server ~repair_cache () in
    let c = Client.in_process s in
    ignore (call_exn c (submit ~id:"a" pcr));
    ignore (call_exn c (P.Result "a"));
    let report, warm =
      repair_reply
        (call_exn c
           (P.Repair
              { id = "p1"; target = "a"; defects = [ Defect.Cell (0, 0) ] }))
    in
    (report, warm, s)
  in
  let r_warm, warm, s = run ~repair_cache:8 in
  let r_cold, cold, _ = run ~repair_cache:0 in
  Alcotest.(check bool) "retained full result => warm" true warm;
  Alcotest.(check bool) "no retention => cold" false cold;
  Alcotest.(check string) "report bytes independent of cache temperature"
    r_warm r_cold;
  (* stats gained the repair section; the virtual clock prices the
     temperature: warm repairs cost 1 tick *)
  match Server.stats_json s with
  | Json.Obj fields ->
    (match List.assoc_opt "repair" fields with
     | Some (Json.Obj rf) ->
       Alcotest.(check bool) "repairs total" true
         (List.assoc_opt "total" rf = Some (Json.Int 1));
       Alcotest.(check bool) "repairs warm" true
         (List.assoc_opt "warm" rf = Some (Json.Int 1));
       let latency k = stat (Json.Obj rf) [ "latency"; k ] in
       Alcotest.(check (float 1e-9)) "one repair latency" 1.0
         (latency "count");
       Alcotest.(check (float 1e-9)) "warm latency is 1 tick" 1.0
         (latency "max");
       Alcotest.(check (float 1e-9)) "repair latency sum" 1.0 (latency "sum")
     | _ -> Alcotest.fail "stats lost the repair section");
    Alcotest.(check bool) "prometheus repair series" true
      (contains ~sub:"dcsa_repair_latency" (Server.prometheus_stats s))
  | _ -> Alcotest.fail "stats is not an object"

let test_server_repair_jobs_invariant () =
  (* same script, different worker counts: repair report byte-identical *)
  let run jobs =
    let s = server ~jobs ~batch:2 () in
    let c = Client.in_process s in
    ignore (call_exn c (submit ~id:"a" ~seed:(Some 1) pcr));
    ignore (call_exn c (submit ~id:"b" ~seed:(Some 2) pcr));
    ignore (call_exn c (P.Result "a"));
    repair_reply
      (call_exn c
         (P.Repair
            { id = "p1"; target = "a"; defects = [ Defect.Cell (1, 1) ] }))
  in
  Alcotest.(check bool) "jobs=1 = jobs=2" true (run 1 = run 2)

let test_server_repair_drains_queued_target () =
  let s = server () in
  let c = Client.in_process s in
  ignore (call_exn c (submit ~id:"a" pcr));
  let _, warm =
    repair_reply
      (call_exn c
         (P.Repair
            { id = "p1"; target = "a"; defects = [ Defect.Cell (0, 0) ] }))
  in
  Alcotest.(check bool) "forced the batch, then warm" true warm;
  match call_exn c (P.Status "a") with
  | P.Job_status { state = "done"; _ } -> ()
  | r -> Alcotest.failf "target status: %s" (P.response_to_line r)

let test_server_repair_errors () =
  let s = server () in
  let c = Client.in_process s in
  ignore (call_exn c (submit ~id:"a" pcr));
  ignore (call_exn c (P.Result "a"));
  (match
     call_exn c
       (P.Repair
          { id = "p1"; target = "ghost"; defects = [ Defect.Cell (0, 0) ] })
   with
   | P.Bad_request { message; _ } ->
     Alcotest.(check bool) "unknown target" true
       (contains ~sub:"ghost" message)
   | r -> Alcotest.failf "unknown target: %s" (P.response_to_line r));
  (match
     call_exn c
       (P.Repair { id = "a"; target = "a"; defects = [ Defect.Cell (0, 0) ] })
   with
   | P.Rejected { op = "repair"; reason = "duplicate id"; _ } -> ()
   | r -> Alcotest.failf "duplicate id: %s" (P.response_to_line r));
  (match
     call_exn c
       (P.Repair
          { id = "p2"; target = "a"; defects = [ Defect.Cell (999, 999) ] })
   with
   | P.Rejected { op = "repair"; reason; _ } ->
     Alcotest.(check bool) "out-of-bounds cell named" true
       (contains ~sub:"999" reason)
   | r -> Alcotest.failf "invalid defect: %s" (P.response_to_line r));
  (* no repair succeeded, so the stats payload keeps its legacy shape *)
  match Server.stats_json s with
  | Json.Obj fields ->
    Alcotest.(check bool) "no repair section" true
      (List.assoc_opt "repair" fields = None)
  | _ -> Alcotest.fail "stats is not an object"

(* --- cache accounting across every reuse path --- *)

let submit_text ~id text =
  P.Submit
    {
      id;
      priority = 0;
      deadline = None;
      flow = `Ours;
      spec = P.Assay { text; alloc = None };
      overrides = P.no_overrides;
      trace = None;
    }

(* [duration_assay] with a second edit (op 1 heat 4 -> 6). *)
let duration2_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 6 a\n\
   op 1 heat 6 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

let repair_at ~id ~target =
  P.Repair { id; target; defects = [ Mfb_repair.Defect.Cell (0, 0) ] }

(* One script at [--batch 4] through every reuse path: a within-batch
   duplicate (a2), a cross-batch repeat answered at submit (h), a
   near-hit whose seed is still retained (p5 off p2, a seed-only knob
   edit), a near-hit whose seed was evicted from the 1-entry full-result
   cache (b off a), a chained near-hit (x off b), warm and cold repairs,
   and a resubmission whose summary entry was evicted (p1b). *)
let accounting_script =
  [
    submit_text ~id:"a" base_assay;
    submit_text ~id:"a2" base_assay;
    submit ~id:"p1" ~seed:(Some 1) pcr;
    submit ~id:"p2" ~seed:(Some 2) pcr;
    P.Result "a2";
    submit_text ~id:"h" base_assay;
    submit ~id:"p5" ~seed:(Some 5) pcr;
    submit_text ~id:"b" duration_assay;
    P.Result "b";
    repair_at ~id:"r1" ~target:"b";
    repair_at ~id:"r2" ~target:"p1";
    submit_text ~id:"x" duration2_assay;
    submit ~id:"p1b" ~seed:(Some 1) pcr;
    P.Result "x";
    P.Result "p1b";
  ]

let accounting_run ~jobs =
  let path = Filename.temp_file "acct" ".jsonl" in
  let oc = open_out path in
  let s =
    server ~jobs ~batch:4 ~cache:3 ~repair_cache:1 ~similarity:true
      ~access_log:oc ()
  in
  let responses =
    List.filter_map (Server.handle_line s)
      (List.map P.request_to_line accounting_script)
  in
  let stats =
    match Server.handle s P.Shutdown with
    | P.Goodbye stats -> stats
    | r -> Alcotest.failf "shutdown: %s" (P.response_to_line r)
  in
  close_out oc;
  let log = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let outcomes =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok doc ->
          (match (Json.member "id" doc, Json.member "outcome" doc) with
           | Some (Json.String id), Some (Json.String o) -> id ^ ":" ^ o
           | _ -> Alcotest.failf "access record lacks id/outcome: %s" line)
        | Error e -> Alcotest.failf "access record not JSON (%s): %s" e line)
      (String.split_on_char '\n' (String.trim log))
  in
  (responses, stats, outcomes)

let test_cache_accounting_pinned () =
  let r1, stats1, log1 = accounting_run ~jobs:1 in
  let r2, stats2, log2 = accounting_run ~jobs:2 in
  Alcotest.(check (list string)) "responses jobs=1 = jobs=2" r1 r2;
  let expected_log =
    [ "a:done"; "a2:done"; "p1:done"; "p2:done"; "h:hit"; "p5:near-hit";
      "b:near-hit"; "r1:repair"; "r2:repair-cold"; "x:near-hit";
      "p1b:near-hit" ]
  in
  Alcotest.(check (list string)) "outcomes (jobs=1)" expected_log log1;
  Alcotest.(check (list string)) "outcomes (jobs=2)" expected_log log2;
  List.iter
    (fun (path, want) ->
      let name = String.concat "." path in
      let check jobs stats =
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%s (jobs=%d)" name jobs)
          want (stat stats path)
      in
      check 1 stats1;
      check 2 stats2)
    [
      ([ "cache"; "hits" ], 2.);  (* a2 within its batch, h at submit *)
      ([ "cache"; "misses" ], 8.);
      ([ "cache"; "evictions" ], 4.);
      ([ "computed" ], 7.);
      ([ "rejected" ], 0.);
      ([ "near"; "hits" ], 4.);
      ([ "near"; "fallbacks" ], 0.);
      ([ "near"; "latency"; "count" ], 4.);
      ([ "near"; "latency"; "sum" ], 7.);
      ([ "near"; "latency"; "max" ], 2.);
      ([ "repair"; "total" ], 2.);
      ([ "repair"; "warm" ], 1.);
      ([ "repair"; "latency"; "count" ], 2.);
      ([ "repair"; "latency"; "sum" ], 3.);
      ([ "repair"; "latency"; "max" ], 2.);
      ([ "totals"; "cache"; "hits" ], 2.);
      ([ "totals"; "queue"; "computed" ], 7.);
    ]

(* --- determinism: cold jobs=1 ≡ warm ≡ jobs=2, enforced by qcheck --- *)

(* A script is a list of submissions drawn from a tiny seed pool (so
   repeats are likely) followed by a result request per id. *)
let script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6) (pair (int_bound 3) (int_bound 2)))

let script_lines prefix spec_seeds =
  let submits =
    List.mapi
      (fun i (seed, priority) ->
        P.request_to_line
          (submit
             ~id:(Printf.sprintf "%s%d" prefix i)
             ~priority ~seed:(Some seed) pcr))
      spec_seeds
  in
  let results =
    List.mapi
      (fun i _ ->
        P.request_to_line (P.Result (Printf.sprintf "%s%d" prefix i)))
      spec_seeds
  in
  submits @ results

let run_script s lines = List.filter_map (Server.handle_line s) lines

let prop_server_responses_invariant =
  qtest ~count:20 "cold jobs=1 = warm = jobs=2 responses" script_gen
    (fun spec_seeds ->
      let lines = script_lines "q" spec_seeds in
      let cold = run_script (server ~jobs:1 ~batch:4 ()) lines in
      let parallel = run_script (server ~jobs:2 ~batch:4 ()) lines in
      let warm_server = server ~jobs:1 ~batch:4 () in
      (* prime the cache with the same jobs under different ids *)
      ignore (run_script warm_server (script_lines "w" spec_seeds));
      let warm = run_script warm_server lines in
      cold = parallel && cold = warm)

let suites =
  [
    ( "server.cache_key",
      [
        Alcotest.test_case "textual invariance" `Quick
          test_key_textual_invariance;
        Alcotest.test_case "content sensitivity" `Quick
          test_key_content_sensitivity;
        Alcotest.test_case "config sensitivity" `Quick
          test_key_config_sensitivity;
        Alcotest.test_case "hex form" `Quick test_key_hex_stable;
        Alcotest.test_case "backend sensitivity" `Quick
          test_key_backend_sensitivity;
      ] );
    ( "server.job_queue",
      [
        Alcotest.test_case "dispatch order" `Quick test_queue_dispatch_order;
        Alcotest.test_case "admission control" `Quick test_queue_admission;
        Alcotest.test_case "deadlines" `Quick test_queue_deadlines;
      ] );
    ( "server.protocol",
      [
        Alcotest.test_case "request round-trip" `Quick
          test_protocol_request_roundtrip;
        Alcotest.test_case "response round-trip" `Quick
          test_protocol_response_roundtrip;
        Alcotest.test_case "malformed requests" `Quick test_protocol_malformed;
        Alcotest.test_case "bounded reader lines" `Quick
          test_bounded_reader_lines;
        Alcotest.test_case "bounded reader partial at EOF" `Quick
          test_bounded_reader_partial_line_at_eof;
        Alcotest.test_case "bounded reader oversized resync" `Quick
          test_bounded_reader_oversized_resyncs;
      ] );
    ( "server.serve",
      [
        Alcotest.test_case "cache hit is byte-identical" `Quick
          test_server_cache_hit_identical;
        Alcotest.test_case "backend keys its own cache slot" `Quick
          test_server_backend_cache_not_shared;
        Alcotest.test_case "line hygiene" `Quick test_server_handle_line_hygiene;
        Alcotest.test_case "rejections" `Quick test_server_rejections;
        Alcotest.test_case "numeric input bounded at admission" `Quick
          test_server_bounds_numeric_input;
        Alcotest.test_case "admission and displacement" `Quick
          test_server_admission_and_shedding;
        Alcotest.test_case "deadline shedding" `Quick test_server_deadline_shed;
        Alcotest.test_case "oversized line answered, serving continues" `Quick
          test_serve_answers_oversized_line;
        Alcotest.test_case "shutdown drains the queue" `Quick
          test_shutdown_drains_queue;
        Alcotest.test_case "dispatch hook is answer-transparent" `Quick
          test_dispatch_hook_is_answer_transparent;
        Alcotest.test_case "extra stats appended" `Quick
          test_extra_stats_appended;
        Alcotest.test_case "access log deterministic across jobs" `Quick
          test_access_log_deterministic_across_jobs;
        Alcotest.test_case "slow requests embed spans in the access log" `Quick
          test_access_log_slow_spans;
        Alcotest.test_case "prometheus exposition" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "goodbye carries totals" `Quick test_goodbye_totals;
        Alcotest.test_case "repair warm/cold byte-identical" `Quick
          test_server_repair_warm_cold_identical;
        Alcotest.test_case "repair report jobs-invariant" `Quick
          test_server_repair_jobs_invariant;
        Alcotest.test_case "repair drains a queued target" `Quick
          test_server_repair_drains_queued_target;
        Alcotest.test_case "repair errors" `Quick test_server_repair_errors;
        Alcotest.test_case "cache accounting pinned across reuse paths" `Quick
          test_cache_accounting_pinned;
        Alcotest.test_case "latency histogram tracks requests" `Quick
          test_latency_histogram_tracks_requests;
        prop_server_responses_invariant;
      ] );
  ]
