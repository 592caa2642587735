(* Cost-model explorer: for the paper's example query, show
   (a) the generated C code per storage layout (Fig. 2c),
   (b) the emitted access-pattern program (Table Ib),
   (c) predicted vs simulated cycles across selectivities (Fig. 3 / Fig. 6).

   Run with: dune exec examples/cost_explorer.exe *)

let () =
  let hier = Memsim.Hierarchy.create () in
  let n = 100_000 in
  let cat = Workloads.Microbench.build ~hier ~n () in
  let schema = Workloads.Microbench.schema in

  let layouts =
    [
      ("row (NSM)", Storage.Layout.row schema);
      ("column (DSM)", Storage.Layout.column schema);
      ("hybrid (PDSM)", Workloads.Microbench.pdsm_layout);
    ]
  in

  print_endline "== the example query (paper Fig. 2a) ==";
  print_endline
    "  select sum(B), sum(C), sum(D), sum(E) from R where A < $1\n";

  (* (a) generated code on the PDSM layout *)
  Storage.Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  print_endline "== compiled C on the PDSM layout (cf. Fig. 2c) ==";
  (match
     Engines.C_emitter.emit_unit cat
       (Workloads.Microbench.plan cat ~sel:0.01)
       ~params:(Workloads.Microbench.params ~sel:0.01)
   with
  | Ok info ->
      (* the entry point only; the prelude of value helpers is the same
         for every plan *)
      let src = info.Engines.C_emitter.source in
      let key = "int64_t mrdb_query" in
      let rec entry i =
        if String.sub src i (String.length key) = key then i else entry (i + 1)
      in
      let i = entry 0 in
      print_string (String.sub src i (String.length src - i))
  | Error reason -> print_endline ("jit fallback: " ^ reason));
  print_newline ();

  (* (b) the pattern program *)
  print_endline "== access pattern program (cf. Table Ib) ==";
  List.iter
    (fun (name, layout) ->
      Storage.Catalog.set_layout cat "R" layout;
      let pattern, _ =
        Costmodel.Emit.emit cat (Workloads.Microbench.plan cat ~sel:0.01)
      in
      Format.printf "  %-14s %a@." name Costmodel.Pattern.pp pattern)
    layouts;
  print_newline ();

  (* (c) predicted vs simulated across selectivity and layout *)
  print_endline "== predicted vs simulated cycles (JiT engine) ==";
  let tab =
    Core.Texttab.create [ "layout"; "s"; "predicted"; "simulated"; "ratio" ]
  in
  List.iter
    (fun (name, layout) ->
      Storage.Catalog.set_layout cat "R" layout;
      List.iter
        (fun sel ->
          let plan = Workloads.Microbench.plan cat ~sel in
          let predicted = Costmodel.Model.query_cost cat plan in
          let _, st =
            Engines.Engine.run_measured Engines.Engine.Jit cat plan
              ~params:(Workloads.Microbench.params ~sel)
          in
          let simulated = float_of_int (Memsim.Stats.total_cycles st) in
          Core.Texttab.row tab
            [
              name;
              Printf.sprintf "%.3f" sel;
              Printf.sprintf "%.0f" predicted;
              Printf.sprintf "%.0f" simulated;
              Printf.sprintf "%.2f" (predicted /. simulated);
            ])
        [ 0.001; 0.01; 0.1; 0.5; 1.0 ])
    layouts;
  Core.Texttab.print tab;
  print_endline
    "The model is built from schema, layout and selectivities only - it \
     never reads\nthe data - yet tracks the simulator within tens of percent \
     across three layouts\nand three orders of magnitude of selectivity."
