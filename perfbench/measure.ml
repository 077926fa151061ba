(* Clocks, order statistics and the span recorder shared by every
   workload.  All wall times come from CLOCK_MONOTONIC; the program's own
   timing fields (Result.cpu_time, stage_times) are never read, because
   Sys.time sums the CPU of every domain. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU seconds of this process, and of its waited-for children. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> None)
      lines

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------------- spans ----------------

   A span is one timed call into a layer, emitted into the installed
   Telemetry sink under the category [cat], with the request it belongs
   to as its "rid" argument.  The program's own spans land in the same
   sink; they are looked through, not counted, when self times are
   taken. *)

module Telemetry = Mfb_util.Telemetry

let cat = "perfbench"

let span ?rid name f =
  let args = match rid with Some r -> [ ("rid", Telemetry.Str r) ] | None -> [] in
  Telemetry.span ~cat ~args name f

type timed = {
  name : string;
  rid : string;  (* the nearest enclosing span's "rid", or "" *)
  dur : float;
  self : float;  (* [dur] minus the part covered by benchmark children *)
}

(* Every benchmark span of the sink's span forest.  The children of a
   span are the topmost benchmark spans below it, found through any of
   the program's spans in between; siblings on one track never overlap,
   so their summed duration is the part of the parent they cover.  A
   span opened on another track (e.g. inside Telemetry.with_scope) is a
   root of that track, so a parent and its children must share one. *)
let timed_spans sink =
  let rec walk rid (n : Telemetry.node) acc =
    let rid =
      match List.assoc_opt "rid" n.n_args with
      | Some (Telemetry.Str r) -> r
      | _ -> rid
    in
    let acc, below =
      List.fold_left
        (fun (acc, below) c ->
          let acc, d = walk rid c acc in
          (acc, below +. d))
        (acc, 0.) n.n_children
    in
    if n.n_cat = cat then
      let dur = n.n_dur_us *. 1e-6 in
      ({ name = n.n_name; rid; dur; self = dur -. below } :: acc, dur)
    else (acc, below)
  in
  List.fold_left (fun acc n -> fst (walk "" n acc)) [] (Telemetry.spans sink)

(* Total self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.name
        (s.self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.))
    spans;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.

(* Where runs leave their files (traces, server ports and logs),
   relative to the checkout. *)
let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Appends the sink's events to a trace file, one Chrome trace-event
   JSON object per line (times in µs from the sink's creation); a
   span's parent is the span that encloses it on its track ("tid"). *)
let append_trace sink path =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
    (fun oc -> output_string oc (Telemetry.to_jsonl sink))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
