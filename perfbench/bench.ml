(* The repository benchmark.

     bench --workload table1|serve_mix --seed N --seconds S --trace 0|1

   Run from the root of a checkout (perfbench/run.sh builds it first).
   The metric names, units and directions are read from BENCHMARK.json,
   so the file and the program cannot disagree: with --trace 0 the run
   prints every end-to-end metric, with --trace 1 every per-layer one.
   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the exit code is 0
   only when every output passed the correctness gate. *)

module Json = Mfb_util.Json

type declared = { name : string; unit_ : string; better : string option }

let die code fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      exit code)
    fmt

let str_field k j =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let declared_metrics key doc =
  match Json.member key doc with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match (str_field "name" m, str_field "unit" m) with
        | Some name, Some unit_ -> { name; unit_; better = str_field "better" m }
        | _ -> die 2 "BENCHMARK.json: malformed %s entry" key)
      ms
  | _ -> die 2 "BENCHMARK.json: missing %s" key

let workload_names doc =
  match Json.member "workloads" doc with
  | Some (Json.List ws) -> List.filter_map (str_field "name") ws
  | _ -> die 2 "BENCHMARK.json: missing workloads"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured time");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 per-layer run");
    ]
  in
  let usage =
    "bench --workload NAME --seed N --seconds S --trace 0|1"
  in
  Arg.parse specs (fun a -> die 2 "unexpected argument %S" a) usage;
  match (!workload, !seed, !seconds, !trace) with
  | w, Some seed, Some seconds, Some (0 | 1 as t) when w <> "" && seconds > 0.
    ->
    (w, seed, seconds, t = 1)
  | _ -> die 2 "usage: %s" usage

let json_float v = Printf.sprintf "%.17g" v

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, traced = parse_args () in
  let doc =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | exception Sys_error e -> die 2 "%s" e
    | text ->
      (match Json.of_string text with
       | Ok doc -> doc
       | Error e -> die 2 "BENCHMARK.json: %s" e)
  in
  if not (List.mem workload (workload_names doc)) then
    die 2 "unknown workload %S" workload;
  let declared =
    declared_metrics (if traced then "per_layer" else "end_to_end") doc
  in
  let trace_file =
    Measure.ensure_out_dir ();
    let f = Printf.sprintf "%s/trace-%s-%d.jsonl" Measure.out_dir workload seed in
    if Sys.file_exists f then Sys.remove f;
    f
  in
  let metrics, attempted, failed =
    match workload with
    | "table1" ->
      if traced then Flow_bench.run_traced ~seed ~seconds ~trace_file
      else Flow_bench.run_untraced ~seed ~seconds
    | "serve_mix" ->
      if traced then Serve_bench.run_traced ~seed ~seconds ~trace_file
      else Serve_bench.run_untraced ~seed ~seconds
    | w -> die 2 "workload %S is declared but not implemented" w
  in
  (* A layer a workload bypasses reads 0, as does a ratio with no
     attempts; an end-to-end metric must always be measured. *)
  let undefined = ref [] in
  let values =
    List.map
      (fun d ->
        let v = List.assoc_opt d.name metrics in
        match v with
        | Some v when Float.is_finite v -> (d, v)
        | _ when traced -> (d, 0.)
        | _ ->
          undefined := d.name :: !undefined;
          (d, 0.))
      declared
  in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun d -> d.name = name) declared) then
        die 3 "metric %s is not declared in BENCHMARK.json" name)
    metrics;
  List.iter (fun n -> Printf.eprintf "bench: %s was not measured\n" n) !undefined;
  let correct = failed = 0 && !undefined = [] in
  Printf.printf "workload %s  seed %d  %s run\n" workload seed
    (if traced then "traced" else "untraced");
  List.iter
    (fun (d, v) ->
      Printf.printf "  %-28s %16.6f %-6s %s\n" d.name v d.unit_
        (match d.better with
         | Some b -> b ^ " is better"
         | None -> ""))
    values;
  Printf.printf "  attempted %d  failed %d  correct %b\n" attempted failed
    correct;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (d, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" d.name
              (json_float v) d.unit_)
          values));
  exit (if correct then 0 else 1)
