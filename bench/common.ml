(* Shared helpers for the experiment harness. *)

module Texttab = Mrdb_util.Texttab

let clock_ghz = 2.67 (* the paper's Xeon X5650 *)

let seconds_of_cycles c = float_of_int c /. (clock_ghz *. 1e9)

let header title =
  let line = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title line

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

let scale_env name default =
  match Sys.getenv_opt name with
  | Some v -> ( try float_of_string v with _ -> default)
  | None -> default

let pow10_label f =
  if f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fk" (f /. 1e3)
  else Printf.sprintf "%.0f" f

let run_jit = Engines.Engine.Jit
let run_hyrise = Engines.Engine.Hyrise
let run_bulk = Engines.Engine.Bulk
let run_volcano = Engines.Engine.Volcano

let measure engine cat plan params =
  let _, st = Engines.Engine.run_measured engine cat plan ~params in
  Memsim.Stats.total_cycles st

(* Run one workload query measured. *)
let measure_query engine cat (q : Workloads.Workload.query) ~use_indexes =
  let plan = q.Workloads.Workload.make_plan ~use_indexes in
  measure engine cat plan q.Workloads.Workload.params

(* ------------------------------------------------------------------ *)
(* Unified bench output                                               *)
(* ------------------------------------------------------------------ *)

(* Every benchmark that persists results writes normalized trajectory
   points through this one sink, so [bench/report.exe] can consolidate,
   diff and gate them without per-file parsers. *)

let commit () =
  match Sys.getenv_opt "MRDB_COMMIT" with
  | Some c -> c
  | None -> ( match Sys.getenv_opt "GITHUB_SHA" with Some c -> c | None -> "")

let pt ~bench ~metric ?unit_ v = Trajectory.point ~bench ~metric ?unit_ v

let write_bench file points =
  Trajectory.save file (Trajectory.make_run ~commit:(commit ()) points);
  note "wrote %s" file
