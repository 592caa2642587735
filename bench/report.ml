(* Bench trajectory consolidator.

   Subcommands:

     report.exe consolidate [-o OUT] [FILE...]
         Join the points of every BENCH_*.json trajectory run into one
         BENCH_trajectory.json; a file that is not a trajectory run fails
         the command with its name.  With no FILE arguments, discovers
         BENCH_*.json in the current directory.

     report.exe diff BASELINE CURRENT [--threshold R]
         Print per-metric deltas between two trajectory files; with
         --threshold, list only metrics whose relative change exceeds R.

     report.exe gate --gates GATES.json CURRENT [--baseline FILE]
         Apply regression gates (see Trajectory.gates_of_json) to a
         trajectory; exit 1 if any gate is violated.  --baseline enables
         the max_regress drift checks.  *)

module J = Obs.Json
module T = Trajectory

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("report: " ^ s);
      exit 2)
    fmt

let trajectory_file = "BENCH_trajectory.json"

let discover () =
  Sys.readdir "." |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json"
         && f <> trajectory_file)
  |> List.sort compare

let commit () =
  match Sys.getenv_opt "MRDB_COMMIT" with
  | Some c -> c
  | None -> ( match Sys.getenv_opt "GITHUB_SHA" with Some c -> c | None -> "")

let load_run file =
  match T.load file with
  | r -> r
  | exception Sys_error e -> fail "%s" e
  | exception Failure e -> fail "%s: %s" file e
  | exception J.Parse_error e -> fail "%s: %s" file e

let consolidate ~out files =
  let files = match files with [] -> discover () | fs -> fs in
  if files = [] then fail "no BENCH_*.json files found";
  let points = List.concat_map (fun f -> (load_run f).T.points) files in
  T.save out (T.make_run ~commit:(commit ()) points);
  Printf.printf "consolidated %d file(s), %d point(s) -> %s\n"
    (List.length files) (List.length points) out

let diff ~threshold baseline current =
  let deltas = T.diff ~baseline:(load_run baseline) (load_run current) in
  let interesting (d : T.delta) =
    match (threshold, d.T.ratio) with
    | None, _ -> true
    | Some _, None -> true (* appeared or disappeared *)
    | Some thr, Some r -> Float.abs (r -. 1.) > thr
  in
  let shown = List.filter interesting deltas in
  List.iter
    (fun (d : T.delta) ->
      let f = function None -> "-" | Some v -> Printf.sprintf "%.6g" v in
      let rel =
        match d.T.ratio with
        | Some r -> Printf.sprintf "%+.1f%%" (100. *. (r -. 1.))
        | None -> "-"
      in
      Printf.printf "%-60s %14s %14s %9s\n" d.T.key (f d.T.before)
        (f d.T.after) rel)
    shown;
  Printf.printf "%d metric(s), %d shown%s\n" (List.length deltas)
    (List.length shown)
    (match threshold with
    | Some t -> Printf.sprintf " (threshold %.0f%%)" (100. *. t)
    | None -> "")

let gate ~gates_file ~baseline current =
  let gates =
    match J.parse_file gates_file with
    | j -> T.gates_of_json j
    | exception Sys_error e -> fail "%s" e
    | exception J.Parse_error e -> fail "%s: %s" gates_file e
  in
  let baseline = Option.map load_run baseline in
  let violations = T.check ~gates ?baseline (load_run current) in
  if violations = [] then
    Printf.printf "gate: ok (%d gate(s) over %s)\n" (List.length gates)
      current
  else begin
    List.iter
      (fun (v : T.violation) ->
        Printf.eprintf "gate violation: %s/%s: %s (gate %s)\n"
          v.T.point.T.bench v.T.point.T.metric v.T.reason v.T.gate.T.pattern)
      violations;
    Printf.eprintf "gate: %d violation(s)\n" (List.length violations);
    exit 1
  end

let usage () =
  prerr_endline
    "usage: report.exe consolidate [-o OUT] [FILE...]\n\
    \       report.exe diff BASELINE CURRENT [--threshold R]\n\
    \       report.exe gate --gates GATES.json CURRENT [--baseline FILE]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "consolidate" :: rest ->
      let rec go out files = function
        | [] -> consolidate ~out (List.rev files)
        | "-o" :: o :: rest -> go o files rest
        | "-o" :: [] -> usage ()
        | f :: rest -> go out (f :: files) rest
      in
      go trajectory_file [] rest
  | _ :: "diff" :: rest ->
      let rec go threshold files = function
        | [] -> (
            match List.rev files with
            | [ baseline; current ] -> diff ~threshold baseline current
            | _ -> usage ())
        | "--threshold" :: t :: rest -> (
            match float_of_string_opt t with
            | Some t -> go (Some t) files rest
            | None -> usage ())
        | "--threshold" :: [] -> usage ()
        | f :: rest -> go threshold (f :: files) rest
      in
      go None [] rest
  | _ :: "gate" :: rest ->
      let rec go gates baseline files = function
        | [] -> (
            match (gates, List.rev files) with
            | Some gates_file, [ current ] ->
                gate ~gates_file ~baseline current
            | _ -> usage ())
        | "--gates" :: g :: rest -> go (Some g) baseline files rest
        | "--baseline" :: b :: rest -> go gates (Some b) files rest
        | ("--gates" | "--baseline") :: [] -> usage ()
        | f :: rest -> go gates baseline (f :: files) rest
      in
      go None None [] rest
  | _ -> usage ()
