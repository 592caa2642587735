(* The fuzz loop: generate case [seed + i] of an axis, run it through the
   axis's differential check, shrink anything that fails, and report.  Case
   [i] of a run is regenerated exactly by the axis's flags plus
   `--seed (seed + i) --cases 1`, which is the replay line every failure
   report carries. *)

type outcome = Ok | Diverged of Driver.divergence list | Raised of string

(* One fuzz axis over cases of type ['c]. *)
type 'c axis = {
  flags : string list; (* the `mrdb_cli fuzz` flags that select this axis *)
  gen : int -> 'c; (* seed -> case *)
  run : 'c -> Driver.divergence list;
  shrink : failing:('c -> bool) -> 'c -> 'c;
  pp_case : Format.formatter -> 'c -> unit;
}

(* Replay lines name a flag only when it was set; sizes count as set when
   they differ from the CLI defaults. *)
let set cond args = if cond then args else []

let case_axis ~flags ?(max_rows = 120) run =
  {
    flags =
      flags @ set (max_rows <> 120) [ "--max-rows"; string_of_int max_rows ];
    gen = Gen.case ~max_rows;
    run;
    shrink = (fun ~failing c -> Shrink.minimize ~failing c);
    pp_case = (fun ppf c -> Format.pp_print_string ppf (Case.to_ocaml c));
  }

(* Every engine × layout combination, plus the parallel, compiled,
   metamorphic and (unless [recovery] is false) WAL-recovery replays;
   [mutate] weakens the bulk/nsm combination. *)
let matrix ?(mutate = false) ?(recovery = true) ?max_rows () =
  case_axis ?max_rows
    ~flags:(set mutate [ "--mutate" ] @ set (not recovery) [ "--no-recovery" ])
    (Driver.run_case ~mutate ~recovery)

(* `fuzz --advisor`: the episode replays once with the layout advisor
   repartitioning mid-episode; [mutate] weakens that one replay. *)
let advisor ?(mutate = false) ?max_rows () =
  case_axis ?max_rows
    ~flags:("--advisor" :: set mutate [ "--mutate" ])
    (fun c -> Driver.run_advisor ~mutate c ~oracle:(Driver.oracle_results c))

(* `fuzz --shards N`: the episode replays over an N-shard durable cluster;
   answers, final shard unions, and post-recovery digests must all hold.
   [mutate] weakens the bulk combination. *)
let shards ?(mutate = false) ?max_rows n =
  case_axis ?max_rows
    ~flags:([ "--shards"; string_of_int n ] @ set mutate [ "--mutate" ])
    (Driver.run_case_shard ~mutate ~shards:n)

(* `fuzz --txn`: interleaved multi-client histories against the MVCC
   manager; a history has no episode to weaken and is not shrunk. *)
let txn ?(max_clients = 3) () =
  {
    flags =
      "--txn"
      :: set (max_clients <> 3) [ "--clients"; string_of_int max_clients ];
    gen = Txn_fuzz.gen_case ~max_clients;
    run = Txn_fuzz.run_case;
    shrink = (fun ~failing:_ c -> c);
    pp_case = Txn_fuzz.pp_case;
  }

type 'c report = {
  seed : int;
  case : 'c;
  outcome : outcome; (* of the original case *)
  minimized : 'c; (* = case when outcome = Ok *)
}

let outcome_of axis c =
  match axis.run c with
  | [] -> Ok
  | ds -> Diverged ds
  | exception e -> Raised (Printexc.to_string e)

(* The shrinker must preserve the *kind* of failure: a case that diverged
   shrinks towards smaller divergent cases (candidates whose oracle or
   generator-side evaluation raises are rejected, so shrinking cannot walk
   into ill-formed plans), and a case that raised shrinks towards smaller
   raising cases. *)
let failure_pred axis = function
  | Ok -> fun _ -> false
  | Diverged _ -> (
      fun c ->
        match axis.run c with
        | [] -> false
        | _ :: _ -> true
        | exception _ -> false)
  | Raised _ -> (
      fun c ->
        match axis.run c with
        | _ -> false
        | exception _ -> true)

let m_cases =
  Obs.Metrics.counter "mrdb_fuzz_cases_total" ~help:"Fuzz cases executed"

let m_divergences =
  Obs.Metrics.counter "mrdb_fuzz_divergences_total"
    ~help:"Engine-vs-oracle divergences observed (pre-shrink)"

let m_raised =
  Obs.Metrics.counter "mrdb_fuzz_exceptions_total"
    ~help:"Fuzz cases that raised (pre-shrink)"

(* Run [cases] consecutive seeds; returns the failing reports. *)
let fuzz axis ?(log = fun _ -> ()) ~seed ~cases () =
  let failures = ref [] in
  for i = 0 to cases - 1 do
    let seed = seed + i in
    let case = axis.gen seed in
    let outcome = outcome_of axis case in
    Obs.Metrics.incr m_cases;
    (match outcome with
    | Ok -> ()
    | Diverged ds -> Obs.Metrics.add m_divergences (List.length ds)
    | Raised _ -> Obs.Metrics.incr m_raised);
    if outcome <> Ok then begin
      let minimized = axis.shrink ~failing:(failure_pred axis outcome) case in
      failures := { seed; case; outcome; minimized } :: !failures
    end;
    if (i + 1) mod 50 = 0 || i = cases - 1 then
      log
        (Printf.sprintf "%d/%d cases, %d failure(s)" (i + 1) cases
           (List.length !failures))
  done;
  List.rev !failures

let pp_report axis ppf (r : _ report) =
  (match r.outcome with
  | Ok -> Format.fprintf ppf "seed %d: ok@." r.seed
  | Raised msg -> Format.fprintf ppf "seed %d: exception: %s@." r.seed msg
  | Diverged ds ->
      Format.fprintf ppf "seed %d: %d divergence(s)@." r.seed (List.length ds);
      List.iter (Format.fprintf ppf "  %a@." Driver.pp_divergence) ds);
  Format.fprintf ppf
    "replay with `mrdb_cli fuzz %s`@.--- minimized repro ---@.%a"
    (String.concat " "
       (axis.flags @ [ "--seed"; string_of_int r.seed; "--cases"; "1" ]))
    axis.pp_case r.minimized
