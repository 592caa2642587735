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

(* Jit and Compiled compile once and re-step their pipeline per call; the
   other engines plan and run afresh on every call. *)
let prepare kind ~params cat plan =
  match kind with
  | Jit -> Jit.prepare cat plan ~params
  | Compiled -> Compiled.prepare cat plan ~params
  | Volcano -> fun () -> Volcano.run cat plan ~params
  | Bulk -> fun () -> Bulk.run cat plan ~params
  | Vectorized -> fun () -> Vectorized.run cat plan ~params
  | Hyrise ->
      fun () -> Bulk.run ~per_value:Cpu_model.hyrise_per_value cat plan ~params

let run ?(domains = 1) ?morsel_size kind cat plan ~params =
  Parallel.run ~domains ?morsel_size ~prepare:(prepare kind ~params) ~params
    cat plan

let run_measured ?(domains = 1) ?morsel_size kind cat plan ~params =
  Parallel.run_measured ~domains ?morsel_size ~prepare:(prepare kind ~params)
    ~params cat plan
