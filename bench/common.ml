(* Helpers shared by the bench executables: one command-line parser,
   the failure exit and the percentile of a sorted sample.

   Each executable declares its options at module initialisation
   ([int], [float], [string], [string_opt], [flag]) and then calls
   [check], which rejects any option it did not declare.  A token
   starting with "--" names an option; the next token is its value
   unless it starts with "--" too.  A missing or malformed value, a
   value given to a flag, a stray argument or an unknown option prints
   a message and exits 2. *)

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "%s: %s\n" (Filename.basename Sys.argv.(0)) m;
      exit 2)
    fmt

let is_option tok = String.length tok > 2 && String.sub tok 0 2 = "--"

(* (option, value) pairs in command-line order. *)
let given =
  let n = Array.length Sys.argv in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      let tok = Sys.argv.(i) in
      if not (is_option tok) then usage_error "unexpected argument %S" tok
      else if i + 1 < n && not (is_option Sys.argv.(i + 1)) then
        scan (i + 2) ((tok, Some Sys.argv.(i + 1)) :: acc)
      else scan (i + 1) ((tok, None) :: acc)
  in
  scan 1 []

let declared = ref []

let lookup name =
  declared := name :: !declared;
  List.assoc_opt name given

let value name ~what parse =
  match lookup name with
  | None -> None
  | Some None -> usage_error "%s expects %s" name what
  | Some (Some v) ->
    (match parse v with
     | Some x -> Some x
     | None -> usage_error "%s expects %s, got %S" name what v)

let int name default =
  Option.value ~default (value name ~what:"an integer" int_of_string_opt)

let float name default =
  Option.value ~default (value name ~what:"a number" float_of_string_opt)

let string_opt name = value name ~what:"a value" Option.some
let string name default = Option.value ~default (string_opt name)

let flag name =
  match lookup name with
  | None -> false
  | Some None -> true
  | Some (Some v) -> usage_error "%s takes no value, got %S" name v

let check () =
  List.iter
    (fun (name, _) ->
      if not (List.mem name !declared) then
        usage_error "unknown option %s (known: %s)" name
          (String.concat " " (List.rev !declared)))
    given

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Nearest-rank percentile of an ascending, non-empty sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
