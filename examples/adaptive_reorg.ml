(* Adaptive reorganization: watch the online layout advisor react to a
   workload shift — the paper's Section VII "online/adaptive
   reorganization" sketch, made concrete.

   Run with: dune exec examples/adaptive_reorg.exe *)

module V = Storage.Value
module Advisor = Layoutopt.Advisor

let () =
  let n = 60_000 in
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n () in
  let schema = Workloads.Microbench.schema in
  let monitor =
    Advisor.create ~algorithm:(Layoutopt.Optimizer.Bpi 0.005) ~window:96
      ~check_every:24 ~min_benefit:0.02 ~horizon:25.0 cat
  in
  (* the OLTP phase looks up tuples through a hash index, as a real
     transactional application would *)
  Storage.Catalog.create_index cat "R" ~name:"r_a" ~kind:Storage.Index.Hash
    ~attrs:[ "A" ];
  let point =
    Relalg.Planner.plan
      ~estimate:(fun _ -> Some (1.0 /. float_of_int n))
      cat
      (Relalg.Sql.parse cat "select * from R where A = $1")
  in
  let describe_layout () =
    let rel = Storage.Catalog.find cat "R" in
    Storage.Layout.kind_label (Storage.Relation.layout rel)
  in
  let phase name queries =
    Printf.printf "\n== %s (layout at start: %s) ==\n" name (describe_layout ());
    let cycles = ref 0 in
    List.iter
      (fun (plan, params) ->
        let _, st =
          Engines.Engine.run_measured Engines.Engine.Jit cat plan ~params
        in
        cycles := !cycles + Memsim.Stats.total_cycles st;
        List.iter
          (fun (r : Advisor.recommendation) ->
            Format.printf "  >> monitor repartitioned %s: %a@." r.Advisor.table
              (Storage.Layout.pp schema) r.Advisor.proposed_layout)
          (Advisor.observe monitor plan))
      queries;
    Printf.printf "  %d queries, %.2fM simulated cycles; layout now: %s\n"
      (List.length queries)
      (float_of_int !cycles /. 1e6)
      (describe_layout ())
  in
  let rng = Core.Rng.create 99 in
  phase "phase 1: OLTP point lookups"
    (List.init 96 (fun _ ->
         (point, [| V.VInt (Core.Rng.int rng Workloads.Microbench.domain) |])));
  phase "phase 2: analytical scans"
    (List.init 96 (fun _ ->
         ( Workloads.Microbench.plan cat ~sel:0.02,
           Workloads.Microbench.params ~sel:0.02 )));
  Printf.printf "\nreorganizations: %d; monitor observed %d queries total\n"
    (List.length (Advisor.applied monitor))
    (Advisor.observed monitor)
