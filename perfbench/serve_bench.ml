(* The serving workload, serve_mix.

   `dcsa_synth serve --tcp 0 --wall-clock --similarity --jobs 1` runs as
   a subprocess and is driven open-loop over ONE pipelined connection:
   requests leave at seeded Poisson instants whether or not earlier ones
   have been answered, and each latency is timed from the instant the
   request was due.  One connection keeps script order, so every cache,
   warm-start and repair decision and every payload is a pure function
   of the seed; only latency varies.  Every reply is compared byte for
   byte with an in-process lockstep replay of the same script.

   The traced run decomposes the same replay into the public calls a
   request passes through (Frame, Protocol parse, Server.handle,
   Protocol encode), times Cache_key and Sim_index on the side, and
   reads the synthesis stages and counters from an installed telemetry
   sink. *)

module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
open Measure

(* ---------------- the request script ---------------- *)

type kind = Hit | Edit | Fresh | Repair

type request = {
  kind : kind;
  lines : string list;  (* one reply per line, in order *)
}

(* Fresh assays cycle through Table I benchmarks (with a new annealer
   seed each, so a new cache key) and synthetic assays. *)
type fresh = Bench of string | Synthetic of int * (int * int * int * int)

let fresh_kinds =
  [| Bench "PCR"; Bench "IVD"; Bench "CPA"; Synthetic (12, (3, 2, 1, 1));
     Synthetic (20, (3, 3, 2, 1)); Synthetic (25, (4, 2, 2, 2)) |]

type job = {
  id : string;  (* id of the submission that first computed it *)
  kind_ix : int;  (* its assay's index in [fresh_kinds] *)
  spec : P.spec;
  overrides : P.overrides;
  n_components : int;
  graph : Mfb_bioassay.Seq_graph.t option;  (* inline assays only *)
}

(* The traffic model is bench/load_gen's default: 90 % of requests
   repeat an earlier job (--repeat 0.9), at 50 requests/s (--rate 50,
   [main_rate] below).  The other 10 % are split 2:1:1 between
   single-op edits, fresh assays and repairs; that split is a choice,
   not a measurement.  Per block of 40 requests: 36 exact repeats and,
   opening each run of 10, the 4 expensive requests, so every prefix of the script has nearly the same mix.  The median
   request is then a cache hit, and p99 (the costliest tenth of the
   expensive requests) a cold compute, fallback or repair.  Spacing the
   expensive requests evenly keeps them from queueing behind each other
   by chance, so the tail is set by their own cost. *)
let expensive = [ Edit; Edit; Fresh; Repair ]

let hits_between = 9

(* Repeats draw from the most recent distinct jobs: more than the
   server's 8 retained full results, fewer than its 128 cached
   summaries (the value in between is chosen). *)
let working_set = 48

(* Full results the server retains for warm starts and repairs. *)
let retained = Server.default_config.repair_cache

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let submit ~id (j : job) =
  P.request_to_line
    (P.Submit
       {
         id;
         priority = 0;
         deadline = None;
         flow = `Ours;
         spec = j.spec;
         overrides = j.overrides;
         trace = None;
       })

let inline_job ~id ~kind_ix ~alloc graph =
  let m, h, f, d = alloc in
  {
    id;
    kind_ix;
    spec =
      P.Assay
        { text = Mfb_bioassay.Assay_file.to_string graph; alloc = Some alloc };
    overrides = P.no_overrides;
    n_components = m + h + f + d;
    graph = Some graph;
  }

let fresh_job ~id k =
  let kind_ix = k mod Array.length fresh_kinds in
  match fresh_kinds.(kind_ix) with
  | Bench name ->
    let inst = Option.get (Mfb_core.Suite.find name) in
    {
      id;
      kind_ix;
      spec = P.Benchmark name;
      overrides = { P.no_overrides with o_seed = Some (1000 + k) };
      n_components = Mfb_component.Allocation.total inst.allocation;
      graph = None;
    }
  | Synthetic (n_ops, alloc) ->
    Mfb_bioassay.Synthetic.generate ~name:("mix-" ^ id)
      { Mfb_bioassay.Synthetic.default_params with n_ops; seed = 1000 + k }
    |> inline_job ~id ~kind_ix ~alloc

(* One operation's duration moved by 1-3 s: a single-op edit, within
   the server's similarity threshold of the original. *)
let edit_job rng ~id (base : job) =
  let module G = Mfb_bioassay.Seq_graph in
  let module O = Mfb_bioassay.Operation in
  let g = Option.get base.graph in
  let v = Random.State.int rng (G.n_ops g) in
  let ops =
    Array.to_list
      (Array.map
         (fun (o : O.t) ->
           if o.id <> v then o
           else
             let delta = float_of_int (1 + Random.State.int rng 3) in
             let duration =
               if o.duration > 6. then o.duration -. delta
               else o.duration +. delta
             in
             O.make ~id:o.id ~kind:o.kind ~duration ~output:o.output)
         (G.ops g))
  in
  let alloc =
    match base.spec with
    | P.Assay { alloc = Some a; _ } -> a
    | _ -> invalid_arg "edit_job: not an inline assay"
  in
  inline_job ~id ~kind_ix:base.kind_ix ~alloc
    (G.create ~name:("mix-" ^ id) ~ops ~edges:(G.edges g))

(* The expensive requests are the same sequence for every seed, so that
   every run does the same work and the seed moves the repeats and the
   timing.  Drawn from the seed, they changed the share of warm starts
   (60 % against 71 % of edits and fresh assays, for two seeds), which
   spread max_rps_at_slo beyond its bound and synth_s nearly to its
   own over five seeds.
   Repeats do not touch the server's retained full results or its
   similarity index, so the expensive requests meet the same server
   state whatever the seed.  The sequence:

   - the k-th fresh assay is kind k mod 6, with annealer or generator
     seed 1000 + k;
   - edits and repairs cycle through the assay kinds, and alternate
     between the most recent job of the kind, whose full result the
     server still retains (a warm start), and one older than its repair
     cache holds (the full result is re-synthesised first).  A fixed
     generator picks the older job, the edited operation, the change
     and the order of the four expensive requests in each block. *)
let script ~seed n =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let fixed = Random.State.make [| 0x5e7e |] in
  let pool = ref [] (* distinct jobs, newest first *) in
  let slots = ref [] and n_fresh = ref 0 in
  let n_edits = ref 0 and n_repairs = ref 0 in
  let next_slot () =
    if !slots = [] then
      slots :=
        List.concat_map
          (fun k -> k :: List.init hits_between (fun _ -> Hit))
          (shuffle fixed expensive);
    let k = List.hd !slots in
    slots := List.tl !slots;
    k
  in
  let remember j =
    pool := j :: List.filteri (fun i _ -> i < working_set - 1) !pool
  in
  let pick rng l = List.nth l (Random.State.int rng (List.length l)) in
  (* The [turn]-th edit or repair: a job of the turn's kind among
     [candidates], the newest on even turns and an older one on odd. *)
  let stratified turn kinds candidates =
    let t = !turn in
    incr turn;
    let kind = List.nth kinds (t / 2 mod List.length kinds) in
    let same = List.filter (fun j -> j.kind_ix = kind) candidates in
    let jobs = if same = [] then candidates else same in
    let recent = List.filteri (fun i _ -> i < retained) !pool in
    let older = List.filter (fun j -> not (List.memq j recent)) jobs in
    if t mod 2 = 0 || older = [] then List.hd jobs else pick fixed older
  in
  let all_kinds = List.init (Array.length fresh_kinds) Fun.id in
  let inline_kinds =
    List.filter
      (fun k ->
        match fresh_kinds.(k) with Synthetic _ -> true | Bench _ -> false)
      all_kinds
  in
  let submit_req kind ~id j =
    { kind; lines = [ submit ~id j; P.request_to_line (P.Result id) ] }
  in
  let request i =
    let id = Printf.sprintf "q%d" i in
    let inline = List.filter (fun j -> j.graph <> None) !pool in
    match next_slot () with
    | Hit when !pool <> [] -> submit_req Hit ~id (pick rng !pool)
    | Edit when inline <> [] ->
      let j = edit_job fixed ~id (stratified n_edits inline_kinds inline) in
      remember j;
      submit_req Edit ~id j
    | Repair when !pool <> [] ->
      let r = !n_repairs in
      let j = stratified n_repairs all_kinds !pool in
      let defect = Mfb_repair.Defect.Component (r mod j.n_components) in
      {
        kind = Repair;
        lines =
          [
            P.request_to_line
              (P.Repair { id; target = j.id; defects = [ defect ] });
          ];
      }
    | Hit | Edit | Fresh | Repair ->
      let j = fresh_job ~id !n_fresh in
      incr n_fresh;
      remember j;
      submit_req Fresh ~id j
  in
  let out = ref [] in
  for i = 0 to n - 1 do
    out := request i :: !out
  done;
  Array.of_list (List.rev !out)

(* ---------------- replies ---------------- *)

(* The server's configuration under the CLI flags the benchmark passes. *)
let server_config =
  { Server.default_config with similarity = true; clock = `Wall }

let server_args =
  [ "serve"; "--tcp"; "0"; "--wall-clock"; "--similarity"; "--jobs"; "1" ]

(* A reply that reports an error is a failed operation. *)
let reply_ok line =
  match P.response_of_line line with
  | Ok (P.Rejected _ | P.Bad_request _) | Error _ -> false
  | Ok _ -> true

let design line =
  match P.response_of_line line with
  | Ok (P.Job_result { result; _ }) -> Some result
  | _ -> None

let field name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Float.nan

(* In-process lockstep replay: the reference replies, and the wall time
   each request's lines take the server without a network. *)
let lockstep reqs =
  let t = Server.create server_config in
  let times = Array.make (Array.length reqs) 0. in
  let replies =
    Array.mapi
      (fun i r ->
        let replies, dt =
          time (fun () ->
              List.map
                (fun l ->
                  match Server.handle_line t l with
                  | Some reply -> reply
                  | None -> "")
                r.lines)
        in
        times.(i) <- dt;
        replies)
      reqs
  in
  (replies, times)

(* ---------------- the server subprocess ---------------- *)

let server_exe () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/dcsa_synth.exe")

exception Server_failed of string

(* Tcp_client.wait_port_file polls every 50 ms, which would put a 50 ms
   step into setup_s (a server start takes a few ms) and hide a slower
   start; this polls every 1 ms and gives up as soon as the server has
   exited. *)
let rec wait_port ~pid path deadline =
  let port =
    match In_channel.with_open_text path In_channel.input_line with
    | Some l -> int_of_string_opt (String.trim l)
    | None | (exception Sys_error _) -> None
  in
  match port with
  | Some p when p > 0 -> p
  | _ ->
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> raise (Server_failed "server exited before listening"));
    if now () > deadline then raise (Server_failed "server did not listen");
    Unix.sleepf 0.001;
    wait_port ~pid path deadline

let read_line_blocking fd frame ~deadline =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Mfb_net.Frame.next frame with
    | Some (Mfb_net.Frame.Line l) -> Some l
    | Some (Mfb_net.Frame.Oversized _) -> None
    | None ->
      let left = deadline -. now () in
      if left <= 0. then None
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> None
        | _ ->
          (match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> None
           | k ->
             Mfb_net.Frame.feed_bytes frame buf k;
             go ()
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
             go ())
  in
  go ()

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0);
        go off
  in
  go 0

(* Spawns the server, hands [f] a connected socket, then shuts the
   server down and reaps it; returns [f]'s value, the server's peak RSS
   and its CPU seconds.  The server is killed if anything fails. *)
let with_server ~tag f =
  ensure_out_dir ();
  let port_file = Filename.concat out_dir ("port-" ^ tag) in
  if Sys.file_exists port_file then Sys.remove port_file;
  let log =
    Unix.openfile
      (Filename.concat out_dir ("server-" ^ tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let exe = server_exe () in
  let cpu0 = cpu_children () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process exe
          (Array.of_list ((exe :: server_args) @ [ "--port-file"; port_file ]))
          Unix.stdin log log)
  in
  let reaped = ref false in
  let rec reap deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.001;
      reap deadline
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      reaped := true
    | _ -> reaped := true
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let port = wait_port ~pid port_file (now () +. 30.) in
      let fd = Mfb_net.Tcp_client.connect_fd ~port () in
      let v, rss =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let v = f fd in
            let rss = peak_rss_mb (string_of_int pid) in
            Unix.clear_nonblock fd;
            write_all fd (P.request_to_line P.Shutdown ^ "\n");
            let frame = Mfb_net.Frame.create () in
            let deadline = now () +. 30. in
            let rec goodbye () =
              match read_line_blocking fd frame ~deadline with
              | Some l ->
                (match P.response_of_line l with
                 | Ok (P.Goodbye _) -> ()
                 | _ -> goodbye ())
              | None -> ()
            in
            goodbye ();
            (v, rss))
      in
      reap (now () +. 10.);
      (v, Option.value rss ~default:Float.nan, cpu_children () -. cpu0))

(* ---------------- the open-loop generator ---------------- *)

type phase = {
  latency_ms : float option array;  (* per request; None = failed *)
  replies : string list array;  (* per request, in line order *)
  lag_ms : float array;  (* how late each request left *)
}

(* Seeded Poisson arrival offsets, in seconds from the phase start. *)
let arrivals ~seed ~rate n =
  let rng = Random.State.make [| seed; 0xa771 |] in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t -. (Float.log (1. -. Random.State.float rng 1.) /. rate);
      !t)

(* Sends every request at its due instant over [fd], whatever is still
   outstanding, and reads replies as they come.  A request whose reply
   has not arrived [timeout] seconds after the last one was due, or
   whose connection broke, is failed. *)
let open_loop fd (reqs : request array) ~offsets ~timeout =
  let n = Array.length reqs in
  let owner =
    Array.concat
      (Array.to_list (Array.mapi (fun i r -> Array.make (List.length r.lines) i) reqs))
  in
  let remaining = Array.map (fun r -> List.length r.lines) reqs in
  let latency_ms = Array.make n None in
  let replies = Array.make n [] in
  let lag_ms = Array.make n 0. in
  let frame = Mfb_net.Frame.create () in
  let buf = Bytes.create 65536 in
  let pending = ref "" and sent_off = ref 0 in
  let next_req = ref 0 and next_line = ref 0 in
  Unix.set_nonblock fd;
  let start = now () +. 0.02 in
  let due i = start +. offsets.(i) in
  let deadline = due (n - 1) +. timeout in
  let broken = ref false in
  let unsent () = String.length !pending - !sent_off in
  let flush () =
    if unsent () > 0 then
      match Unix.write_substring fd !pending !sent_off (unsent ()) with
      | k -> sent_off := !sent_off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  let finished () = !next_line = Array.length owner in
  while (not !broken) && (not (finished ())) && now () < deadline do
    let t = now () in
    while !next_req < n && due !next_req <= t do
      let i = !next_req in
      pending :=
        String.concat ""
          (String.sub !pending !sent_off (unsent ())
          :: List.map (fun l -> l ^ "\n") reqs.(i).lines);
      sent_off := 0;
      lag_ms.(i) <- 1e3 *. (t -. due i);
      incr next_req
    done;
    (try flush ()
     with Unix.Unix_error _ -> broken := true);
    (* Sleep until just before the next request is due, then poll, so
       requests leave on time rather than a timer wake-up late. *)
    let wait =
      let until = if !next_req < n then due !next_req else deadline in
      Float.max 0. (until -. now () -. 0.0005)
    in
    let writing = unsent () > 0 in
    match Unix.select [ fd ] (if writing then [ fd ] else []) [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      (match Unix.read fd buf 0 (Bytes.length buf) with
       | 0 -> broken := true
       | k ->
         let arrived = now () in
         Mfb_net.Frame.feed_bytes frame buf k;
         let rec drain () =
           match Mfb_net.Frame.next frame with
           | None -> ()
           | Some ev ->
             let line =
               match ev with
               | Mfb_net.Frame.Line l -> l
               | Mfb_net.Frame.Oversized _ -> ""
             in
             let i = owner.(!next_line) in
             incr next_line;
             replies.(i) <- line :: replies.(i);
             remaining.(i) <- remaining.(i) - 1;
             if remaining.(i) = 0 then
               latency_ms.(i) <- Some (1e3 *. (arrived -. due i));
             drain ()
         in
         drain ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
       | exception Unix.Unix_error _ -> broken := true)
  done;
  {
    latency_ms;
    replies = Array.map List.rev replies;
    lag_ms = Array.sub lag_ms 0 !next_req;
  }

(* One open-loop phase on a fresh server: the phase, the server's peak
   RSS and CPU seconds.  A server that cannot be started or reached
   fails every request of the phase. *)
let served ~tag reqs ~offsets =
  try
    with_server ~tag (fun fd -> open_loop fd reqs ~offsets ~timeout:30.)
  with (Unix.Unix_error _ | Server_failed _) as e ->
    Printf.eprintf "%s phase: %s\n%!" tag (Printexc.to_string e);
    let n = Array.length reqs in
    ( {
        latency_ms = Array.make n None;
        replies = Array.make n [];
        lag_ms = [||];
      },
      Float.nan,
      Float.nan )

(* ---------------- metrics ---------------- *)

(* Requests per second of the main phase (bench/load_gen's default
   --rate); [--seconds] at this rate is the phase's request count. *)
let main_rate = 50.

(* Replies that failed, broke the connection, or differ from the
   lockstep reference. *)
let failures ~reference (ph : phase) =
  let bad = ref 0 in
  Array.iteri
    (fun i lat ->
      let ok =
        lat <> None
        && ph.replies.(i) = reference.(i)
        && List.for_all reply_ok ph.replies.(i)
      in
      if not ok then incr bad)
    ph.latency_ms;
  !bad

let completed ph = List.filter_map Fun.id (Array.to_list ph.latency_ms)

(* Mean quality of the designs the script's replies carry, a design
   counted once per reply, as its users see it.  The expensive requests
   are the same for every seed, so the seed moves these means only
   through the repeats it draws. *)
let quality reference =
  let payloads =
    Array.to_list reference
    |> List.concat_map (List.filter_map design)
  in
  let avg name = mean (List.map (field name) payloads) in
  [
    ("exec_time_s", avg "execution_time_s");
    ("channel_mm", avg "channel_length_mm");
    ("utilization", avg "utilization");
  ]

let stats_round_trip fd =
  write_all fd (P.request_to_line P.Stats ^ "\n");
  ignore
    (read_line_blocking fd (Mfb_net.Frame.create ()) ~deadline:(now () +. 30.))

(* Set-up, [k] times: build the script, start a server and have it
   answer once. *)
let setup_samples ~seed n k =
  List.init k (fun _ ->
      snd
        (time (fun () ->
             ignore (script ~seed n);
             ignore (with_server ~tag:"setup" stats_round_trip))))

let lag_p99 ph = quantile (Array.to_list ph.lag_ms) 0.99

(* The generator is too late to measure the server when its p99
   lateness exceeds this. *)
let max_lag_ms = 25.

(* The rate sweep sends the script's first [sweep_requests], enough for
   a p99 with ten samples beyond it.  The replays that time the script
   run its first [replay_requests]: shorter replays can be repeated more
   often, and a request's best time over more repetitions is steadier. *)
let sweep_requests = 1000

let replay_requests = 500

let prefix ?(n = sweep_requests) a = Array.sub a 0 (min n (Array.length a))

type main = {
  mutable setup : float list;
  reqs : request array;
  phase : phase;
  rss : float;
  server_cpu : float;
  reference : string list array;  (* lockstep replies *)
  mutable replays : float array list;
      (* per-request wall time of each lockstep replay, of the whole
         script or of its prefix *)
  mutable replay_bad : int;  (* requests whose replies differ between replays *)
}

(* Another lockstep replay of [reqs], the script or a prefix of it,
   which must reproduce the reference. *)
let replay_again m reqs =
  let replies, times = lockstep reqs in
  m.replays <- times :: m.replays;
  Array.iteri
    (fun i r -> if r <> m.reference.(i) then m.replay_bad <- m.replay_bad + 1)
    replies

(* In-process compute time of the script's first [replay_requests]:
   each request's best time over the replays, summed.  The replays are
   spread over the whole run, so a stretch of host interference slows
   at most some of a request's samples. *)
let best_replay m =
  match List.map (prefix ~n:replay_requests) m.replays with
  | [] -> Float.nan
  | r :: rs ->
    Array.fold_left ( +. ) 0. (List.fold_left (Array.map2 Float.min) r rs)

(* A lockstep replay (the reference replies) and the open-loop run at
   the main rate. *)
let main_phase ~seed ~seconds =
  let n = int_of_float (main_rate *. seconds) in
  let setup = setup_samples ~seed n 5 in
  let reqs = script ~seed n in
  let reference, times = lockstep reqs in
  let phase, rss, server_cpu =
    served ~tag:"main" reqs ~offsets:(arrivals ~seed ~rate:main_rate n)
  in
  let m =
    {
      setup;
      reqs;
      phase;
      rss;
      server_cpu;
      reference;
      replays = [ times ];
      replay_bad = 0;
    }
  in
  m

(* ---------------- the rate sweep ----------------

   Fixed rates 2.5 % apart from the main rate up.  The main phase stands
   for the first step.  Every other step sends the script's prefix
   evenly spaced at the step's rate, on a fresh server.  A step passes
   when every reply is correct, p99 latency is within [slo_p99_ms], and the
   median latency of its last tenth of requests is too (no growing
   backlog), in one of two tries.  Passing is monotone in the rate, so
   the highest passing step is found by bisection. *)

let slo_p99_ms = 250.

let sweep_rates =
  Array.init 121 (fun k -> main_rate *. (1.025 ** float_of_int k))

let meets_slo ~reference ph =
  let lat = Array.to_list ph.latency_ms in
  let n = List.length lat in
  let tail = List.filteri (fun i _ -> i >= n - (n / 10)) lat in
  failures ~reference ph = 0
  && quantile (completed ph) 0.99 <= slo_p99_ms
  && median (List.filter_map Fun.id tail) <= slo_p99_ms

let max_rps_at_slo ~reference ~main ~between reqs =
  let failed = ref 0 in
  let step_reqs = prefix reqs and step_reference = prefix reference in
  let n = Array.length step_reqs in
  let attempt k =
    between ();
    let ph, _, _ =
      served ~tag:"sweep" step_reqs
        ~offsets:(Array.init n (fun i -> float_of_int i /. sweep_rates.(k)))
    in
    failed := !failed + failures ~reference:step_reference ph;
    Printf.eprintf "sweep %.1f req/s: p99 %.2f ms\n%!" sweep_rates.(k)
      (quantile (completed ph) 0.99);
    meets_slo ~reference:step_reference ph
  in
  (* A step that misses the limit is tried once more, so one stall of a
     shared host does not end the sweep early. *)
  let probe k = attempt k || attempt k in
  (* A main phase that misses the limit leaves no passing step: the
     metric is not measured and the run fails. *)
  if not (meets_slo ~reference main) then begin
    Printf.eprintf "main phase at %.0f req/s misses the SLO\n%!" main_rate;
    (Float.nan, 1)
  end
  else begin
    (* invariant: step [lo] passes, step [hi] fails or is off the end *)
    let lo = ref 0 and hi = ref (Array.length sweep_rates) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if probe mid then lo := mid else hi := mid
    done;
    (sweep_rates.(!lo), !failed)
  end

let run_untraced ~seed ~seconds =
  let m = main_phase ~seed ~seconds in
  let lat = completed m.phase in
  let attempted = Array.length m.reqs in
  let lag = lag_p99 m.phase in
  if lag > max_lag_ms then
    Printf.eprintf "invalid run: generator lag p99 %.1f ms > %.1f ms\n%!" lag
      max_lag_ms;
  (* Before every try of a sweep step and after the sweep, more set-up
     samples and another timing replay: a block of samples at one moment
     reads the host's speed of that moment. *)
  let between () =
    m.setup <- setup_samples ~seed (Array.length m.reqs) 3 @ m.setup;
    replay_again m (prefix ~n:replay_requests m.reqs)
  in
  let max_rps, sweep_failed =
    max_rps_at_slo ~reference:m.reference ~main:m.phase ~between m.reqs
  in
  between ();
  let failed =
    failures ~reference:m.reference m.phase
    + m.replay_bad + sweep_failed
    + Bool.to_int (lag > max_lag_ms)
  in
  let metrics =
    [
      ("setup_s", median m.setup);
      ("synth_s", best_replay m);
      ("cpu_s", m.server_cpu);
      ("peak_rss_mb", m.rss);
    ]
    @ quality m.reference
    @ [
        ("ok_frac", 1. -. ratio failed attempted);
        ("lat_p50_ms", quantile lat 0.50);
        ("lat_p99_ms", quantile lat 0.99);
        ("max_rps_at_slo", max_rps);
      ]
  in
  (metrics, attempted, failed)

(* ---------------- traced replay ---------------- *)

type outcome = O_hit | O_near | O_cold | O_repair

let run_traced ~seed ~seconds ~trace_file =
  let m = main_phase ~seed ~seconds in
  replay_again m m.reqs;
  let reqs = m.reqs and ph = m.phase and reference = m.reference in
  let replay_s = median (List.map (Array.fold_left ( +. ) 0.) m.replays) in
  let t = Server.create server_config in
  let sink = Telemetry.make_sink ~clock:now () in
  Telemetry.install sink;
  let frame = Mfb_net.Frame.create () in
  let key_us = ref [] and sim_us = ref [] in
  let outcomes = ref [] and repairs_warm = ref 0 in
  let replies =
    Array.mapi
      (fun i r ->
        let rid = Printf.sprintf "q%d" i in
        (* Off the request path: the key and the similarity fingerprint
           of each submission, timed on their own. *)
        List.iter
          (fun l ->
            match P.request_of_line l with
            | Ok (P.Submit { flow; spec; overrides; _ }) ->
              (match
                 Server.resolve ~base:server_config.flow_config ~flow
                   ~overrides spec
               with
               | Ok job ->
                 let make_key () =
                   Mfb_server.Cache_key.make ~config:job.config
                     ~graph:job.graph ~allocation:job.allocation ()
                 and make_fp () =
                   Mfb_server.Sim_index.fingerprint ~config:job.config
                     ~graph:job.graph ~allocation:job.allocation ()
                 in
                 key_us := (1e6 *. snd (time make_key)) :: !key_us;
                 sim_us := (1e6 *. snd (time make_fp)) :: !sim_us
               | Error _ -> ())
            | _ -> ())
          r.lines;
        let near0, _ = Server.near_hit_counts t in
        let out =
          span ~rid "request" (fun () ->
              List.map
                (fun l ->
                  let line =
                    span "frame" (fun () ->
                        Mfb_net.Frame.feed frame (l ^ "\n");
                        match Mfb_net.Frame.next frame with
                        | Some (Mfb_net.Frame.Line l) -> l
                        | _ -> "")
                  in
                  let req =
                    span "parse" (fun () ->
                        P.request_of_line (String.trim line))
                  in
                  let resp =
                    span "handle" (fun () ->
                        match req with
                        | Error message -> P.Bad_request { id = None; message }
                        | Ok req ->
                          (match Server.handle t req with
                           | resp -> resp
                           | exception exn ->
                             P.Bad_request
                               {
                                 id = None;
                                 message = "internal: " ^ Printexc.to_string exn;
                               }))
                  in
                  (match resp with
                   | P.Repair_result { warm = true; _ } -> incr repairs_warm
                   | _ -> ());
                  span "encode" (fun () -> P.response_to_line resp))
                r.lines)
        in
        let near1, _ = Server.near_hit_counts t in
        let o =
          match r.kind with
          | Repair -> O_repair
          | Hit -> O_hit
          | Edit | Fresh -> if near1 > near0 then O_near else O_cold
        in
        outcomes := (rid, o) :: !outcomes;
        out)
      reqs
  in
  Telemetry.uninstall ();
  append_trace sink trace_file;
  let spans = timed_spans sink in
  let reference_bad = ref 0 in
  Array.iteri
    (fun i r -> if r <> reference.(i) then incr reference_bad)
    replies;
  if !reference_bad > 0 then
    Printf.eprintf "traced replay differs from handle_line on %d requests\n%!"
      !reference_bad;
  (* Per request: handle time summed over its lines. *)
  let handle_by_rid = Hashtbl.create 1024 in
  let per_line name =
    List.filter_map
      (fun (s : timed) -> if s.name = name then Some s.dur else None)
      spans
  in
  List.iter
    (fun (s : timed) ->
      if s.name = "handle" then
        Hashtbl.replace handle_by_rid s.rid
          (s.dur
          +. Option.value (Hashtbl.find_opt handle_by_rid s.rid) ~default:0.))
    spans;
  let handle_ms o =
    1e3
    *. median
         (List.filter_map
            (fun (rid, o') ->
              if o = o' then Hashtbl.find_opt handle_by_rid rid else None)
            !outcomes)
  in
  let count o = List.length (List.filter (fun (_, o') -> o' = o) !outcomes) in
  let near, fallbacks = Server.near_hit_counts t in
  let hits =
    match Json.member "cache" (Server.stats_json t) with
    | Some c -> (match Json.member "hits" c with Some (Json.Int h) -> h | _ -> 0)
    | None -> 0
  in
  let submits = count O_hit + count O_near + count O_cold in
  let hit_bad = if hits <> count O_hit then 1 else 0 in
  if hit_bad > 0 then
    Printf.eprintf "cache hits %d differ from the script's %d repeats\n%!"
      hits (count O_hit);
  let stage name =
    List.fold_left
      (fun acc (e : Telemetry.event) ->
        match e.ph with
        | Telemetry.Complete dur_us when e.cat = "stage" && e.name = name ->
          acc +. (dur_us /. 1e3)
        | _ -> acc)
      0. (Telemetry.events sink)
  in
  let metrics_all = Telemetry.metrics sink in
  let counter = Flow_bench.counter metrics_all in
  let request_total =
    List.fold_left ( +. ) 0. (per_line "request")
  in
  let self = self_by_name spans in
  let attributed =
    List.fold_left (fun a n -> a +. self n) 0.
      [ "frame"; "parse"; "handle"; "encode" ]
  in
  let us xs = 1e6 *. median xs in
  let attempted = Array.length reqs in
  let failed = failures ~reference ph + m.replay_bad + !reference_bad + hit_bad in
  let metrics =
    [
      ("schedule.ms", stage "schedule");
      ("place.ms", stage "place");
      ("place.sa_attempted", float_of_int (counter ~cat:"place" "sa.attempted"));
      ( "place.sa_accept_ratio",
        ratio (counter ~cat:"place" "sa.accepted")
          (counter ~cat:"place" "sa.attempted") );
      ("place.delta_evals", float_of_int (counter ~cat:"place" "delta_evals"));
      ("route.ms", stage "route");
      ("route.astar_pops", float_of_int (counter ~cat:"route" "astar.pops"));
      ( "route.field_builds",
        float_of_int (counter ~cat:"route" "heuristic_field_builds") );
      ( "route.conflict_rejections",
        float_of_int (counter ~cat:"route" "conflict.rejections") );
      ("route.delayed_tasks", float_of_int (counter ~cat:"route" "task.delay"));
      ("serve.parse_us", us (per_line "parse"));
      ("serve.key_us", median !key_us);
      ("serve.sim_us", median !sim_us);
      ("serve.encode_us", us (per_line "encode"));
      ("net.frame_us", us (per_line "frame"));
      ("serve.hit_ms", handle_ms O_hit);
      ("serve.near_ms", handle_ms O_near);
      ("serve.cold_ms", handle_ms O_cold);
      ("serve.repair_ms", handle_ms O_repair);
      ("serve.hit_rate", ratio (count O_hit) submits);
      ("serve.near_rate", ratio near (submits - count O_hit));
      ("serve.warm_fallback_ratio", ratio fallbacks (near + fallbacks));
      ("serve.repair_warm_ratio", ratio !repairs_warm (count O_repair));
      ( "serve.queue_wait_ticks",
        Mfb_util.Histogram.sum (Server.queue_wait_histogram t) );
      ("loadgen.lag_p99_ms", lag_p99 ph);
      ( "trace.overhead_pct",
        100. *. (request_total -. replay_s) /. replay_s );
      ( "trace.unattributed_pct",
        100. *. (request_total -. attributed) /. request_total );
    ]
  in
  (metrics, attempted, failed)
