type kind = Volcano | Bulk | Vectorized | Hyrise | Jit | Compiled

let all = [ Volcano; Bulk; Vectorized; Hyrise; Jit ]
let all_with_compiled = all @ [ Compiled ]

let name = function
  | Volcano -> "volcano"
  | Bulk -> "bulk"
  | Vectorized -> "vectorized"
  | Hyrise -> "hyrise"
  | Jit -> "jit"
  | Compiled -> "compiled"

let run_sequential kind cat plan ~params =
  match kind with
  | Volcano -> Volcano.run cat plan ~params
  | Bulk -> Bulk.run cat plan ~params
  | Vectorized -> Vectorized.run cat plan ~params
  | Hyrise -> Bulk.run ~per_value:Cpu_model.hyrise_per_value cat plan ~params
  | Jit -> Jit.run cat plan ~params
  | Compiled -> Compiled.run cat plan ~params

let runner kind ~params cat plan = run_sequential kind cat plan ~params

(* Compile-once, run-many morsel stepping where the engine supports it;
   other engines recompile per morsel as before. *)
let preparer kind ~params =
  match kind with
  | Jit -> Some (fun cat plan -> Jit.prepare cat plan ~params)
  | Compiled -> Some (fun cat plan -> Compiled.prepare cat plan ~params)
  | _ -> None

let run ?(domains = 1) ?morsel_size ?autotune kind cat plan ~params =
  if domains <= 1 then run_sequential kind cat plan ~params
  else
    Parallel.run ~domains ?morsel_size ?autotune
      ~runner:(runner kind ~params)
      ?prepare:(preparer kind ~params)
      ~params cat plan

let run_measured ?(cold = true) ?(domains = 1) ?morsel_size kind cat plan
    ~params =
  if domains > 1 then
    Parallel.run_measured ~cold ~domains ?morsel_size
      ~runner:(runner kind ~params)
      ?prepare:(preparer kind ~params)
      ~params cat plan
  else
    match Storage.Catalog.hier cat with
    | None ->
        let r = run_sequential kind cat plan ~params in
        (r, Memsim.Stats.create ())
    | Some h ->
        if cold then Memsim.Hierarchy.reset h
        else Memsim.Hierarchy.reset_stats h;
        (* a profiling session started before this reset must re-base its
           counter mark or it would see a negative delta *)
        Obs.Profile.resync ();
        let r = run_sequential kind cat plan ~params in
        (r, Memsim.Hierarchy.snapshot h)
