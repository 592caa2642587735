module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Arena = Storage.Arena
module Schema = Storage.Schema
module Physical = Relalg.Physical
module Aggregate = Relalg.Aggregate
module Expr = Relalg.Expr

(* Morsel starts must align with both cache lines and TLB pages inside every
   partition so a parallel measured run touches each line/page from exactly
   one domain: a row index that is a multiple of 4096 starts at a 4096-byte
   aligned offset (lo * width mod 4096 = 0) for any tuple width.  Results are
   correct for any morsel size; only the miss-counter equality with a
   sequential run relies on the alignment. *)
let morsel_quantum = 4096

(* Morsels per domain a derived size aims at: enough that a domain the host
   runs slower leaves at most a 32nd of its share for the others to wait
   on, few enough that a morsel of a large table is long next to the fixed
   cost of one prepared-pipeline call. *)
let morsels_per_domain = 32

let derived_morsel_size ~rows ~domains =
  let per = rows / (morsels_per_domain * max 1 domains) in
  max morsel_quantum (per / morsel_quantum * morsel_quantum)

(* Address-space stride carved out per worker domain for intermediates
   (selection vectors, hash tables, materialization buffers). *)
let domain_arena_stride = 1 lsl 36

type preparer =
  Storage.Catalog.t -> Relalg.Physical.t -> unit -> Runtime.result

(* Reset every hierarchy (counters and caches), run [f], and return its
   result with the merge of their counters. *)
let measure hiers f =
  match hiers with
  | [] -> (f (), Memsim.Stats.create ())
  | h :: rest ->
      List.iter Memsim.Hierarchy.reset hiers;
      (* a profiling session started before this reset must re-base its
         counter mark or it would see a negative delta *)
      Obs.Profile.resync ();
      let r = f () in
      ( r,
        List.fold_left
          (fun acc h -> Memsim.Stats.merge acc (Memsim.Hierarchy.snapshot h))
          (Memsim.Hierarchy.snapshot h) rest )

(* The shapes the morsel executor accepts.  Everything else runs as one
   prepared pipeline over the whole catalog. *)
type strategy =
  | Sequential
  | Concat of { driver : string }
      (* scan / select / project pipeline: per-morsel results concatenate *)
  | Group of {
      driver : string;
      morsel_plan : Physical.t; (* group-by with decomposed aggregates *)
      n_keys : int;
      aggs : Aggregate.t list; (* the original aggregates *)
      post : (Expr.t * string) list list;
          (* root projections above the group-by, innermost first; applied
             to the merged groups (they cannot run per morsel: a projection
             of an aggregate is not mergeable) *)
    }

(* The base table a pure scan pipeline drives over, if any. *)
let rec pipeline_driver = function
  | Physical.Scan { table; access = Physical.Full_scan; _ } -> Some table
  | Physical.Select { child; _ } | Physical.Project { child; _ } ->
      pipeline_driver child
  | _ -> None

(* Strip the projections the planner leaves above a group-by (output column
   selection/renaming), innermost first. *)
let rec peel_projections acc = function
  | Physical.Project { child; exprs } -> peel_projections (exprs :: acc) child
  | p -> (acc, p)

let strategy plan =
  match pipeline_driver plan with
  | Some driver -> Concat { driver }
  | None -> (
      match peel_projections [] plan with
      | post, Physical.Group_by { child; keys; aggs; n_groups } -> (
          match pipeline_driver child with
          | Some driver ->
              let decomposed = List.concat_map Aggregate.decompose aggs in
              Group
                {
                  driver;
                  morsel_plan =
                    Physical.Group_by
                      { child; keys; aggs = decomposed; n_groups };
                  n_keys = List.length keys;
                  aggs;
                  post;
                }
          | None -> Sequential)
      | _ -> Sequential)

let parallelizable plan =
  match strategy plan with Sequential -> false | Concat _ | Group _ -> true

(* ------------------------------------------------------------------ *)
(* Per-domain execution state                                          *)
(* ------------------------------------------------------------------ *)

type domain_state = {
  d_hier : Memsim.Hierarchy.t option;
  d_arena : Arena.t;
}

(* A shadow catalog for one domain, built once per worker: every relation is
   a read-only view whose traced accesses go to the domain's private
   hierarchy, and intermediates allocate from the domain's private arena.
   The returned driver view is resliced in place per morsel — the morsel
   loop mutates only its row window instead of reallocating catalog and
   views for every morsel. *)
let domain_catalog cat st ~driver =
  let vcat = Catalog.create ?hier:st.d_hier ~arena:st.d_arena () in
  let driver_view = ref None in
  List.iter
    (fun name ->
      let rel = Relation.with_hier (Catalog.find cat name) st.d_hier in
      if String.equal name driver then driver_view := Some rel;
      Catalog.add_relation vcat rel)
    (Catalog.names cat);
  match !driver_view with
  | Some drv -> (vcat, drv)
  | None -> invalid_arg "Parallel: driver table not in catalog"

(* ------------------------------------------------------------------ *)
(* Merging per-morsel partial results                                  *)
(* ------------------------------------------------------------------ *)

(* Merge per-morsel group-by outputs in morsel order.  Groups keep global
   first-occurrence order — the same order a sequential run's insertion-
   ordered aggregation table emits — and each original aggregate is
   recombined from its merged decomposed partials. *)
let merge_group_rows ~n_keys ~aggs (partials : Runtime.result array) =
  let parts = List.concat_map Aggregate.decompose aggs in
  let part_funcs =
    Array.of_list (List.map (fun (p : Aggregate.t) -> p.Aggregate.func) parts)
  in
  let n_parts = Array.length part_funcs in
  let tbl : (Value.t list, Value.t array) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun (r : Runtime.result) ->
      List.iter
        (fun row ->
          let key = Array.to_list (Array.sub row 0 n_keys) in
          match Hashtbl.find_opt tbl key with
          | None ->
              Hashtbl.add tbl key (Array.sub row n_keys n_parts);
              order := key :: !order
          | Some acc ->
              for i = 0 to n_parts - 1 do
                acc.(i) <- Aggregate.merge_value part_funcs.(i) acc.(i)
                             row.(n_keys + i)
              done)
        r.Runtime.rows)
    partials;
  let rows =
    List.rev_map
      (fun key ->
        let acc = Hashtbl.find tbl key in
        let finished = ref [] in
        let slot = ref n_parts in
        List.iter
          (fun (a : Aggregate.t) ->
            let width = List.length (Aggregate.decompose a) in
            slot := !slot - width;
            finished := Aggregate.recombine a (Array.sub acc !slot width) :: !finished)
          (List.rev aggs);
        Array.of_list (key @ !finished))
      !order
  in
  rows

(* ------------------------------------------------------------------ *)
(* Chunked morsel claiming with stealing                               *)
(* ------------------------------------------------------------------ *)

(* Each domain owns a contiguous range of morsel indices, packed as
   (next, hi) into one atomic word so a claim is a single CAS on a
   domain-private cache line instead of every worker hammering one shared
   counter.  An exhausted domain steals the upper half of the richest
   victim's remaining range; morsels stay the unit of work, so result
   ordering and per-domain measured-traffic invariants are unchanged.  A
   measured run does not steal ([~stealing:false]): which domain's private
   hierarchy counts a morsel would then depend on host scheduling. *)
let range_bits = 30
let range_mask = (1 lsl range_bits) - 1
let pack next hi = (hi lsl range_bits) lor next
let next_of x = x land range_mask
let hi_of x = x asr range_bits

let make_ranges ~domains n_morsels =
  Array.init domains (fun d ->
      let lo = d * n_morsels / domains in
      let hi = (d + 1) * n_morsels / domains in
      Atomic.make (pack lo hi))

let rec claim ~stealing ranges d =
  let r = ranges.(d) in
  let x = Atomic.get r in
  let nx = next_of x and hi = hi_of x in
  if nx < hi then
    if Atomic.compare_and_set r x (pack (nx + 1) hi) then Some nx
    else claim ~stealing ranges d
  else if stealing then steal ranges d
  else None

and steal ranges d =
  let domains = Array.length ranges in
  let best = ref (-1) and best_rem = ref 0 in
  for v = 0 to domains - 1 do
    if v <> d then begin
      let x = Atomic.get ranges.(v) in
      let rem = hi_of x - next_of x in
      if rem > !best_rem then begin
        best := v;
        best_rem := rem
      end
    end
  done;
  if !best < 0 then None
  else
    let v = !best in
    let x = Atomic.get ranges.(v) in
    let nx = next_of x and hi = hi_of x in
    if hi - nx <= 0 then steal ranges d
    else if hi - nx = 1 then
      if Atomic.compare_and_set ranges.(v) x (pack hi hi) then Some nx
      else steal ranges d
    else
      let mid = (nx + hi + 1) / 2 in
      if Atomic.compare_and_set ranges.(v) x (pack nx mid) then begin
        (* our own range is empty (that is why we are stealing) and no one
           else ever refills it, so a plain store cannot lose work *)
        Atomic.set ranges.(d) (pack mid hi);
        claim ~stealing:true ranges d
      end
      else steal ranges d

(* ------------------------------------------------------------------ *)
(* The morsel loop                                                     *)
(* ------------------------------------------------------------------ *)

let morsel_size_gauge () =
  Obs.Metrics.gauge "parallel_morsel_size"
    ~help:"Rows per morsel of the last morsel-parallel run"

(* Run [morsel_plan] over every morsel of [driver], fanned out to [domains]
   pool workers through per-domain chunked ranges, with stealing when
   untraced, and return the per-morsel results in morsel order with the
   merged counters of the domains' hierarchies.  Each worker builds its
   shadow catalog and compiles the pipeline once ([prepare]); the claim
   loop itself only reslices the driver view and re-steps the prepared
   pipeline.  Workers simulate a private hierarchy with [hier]'s
   parameters, or none when [hier] is [None]. *)
let run_morsels ~domains ?morsel_size ~(prepare : preparer) ~hier cat ~driver
    morsel_plan =
  let n = Relation.nrows (Catalog.find cat driver) in
  let morsel_size =
    match morsel_size with
    | Some m -> m
    | None -> derived_morsel_size ~rows:n ~domains
  in
  Obs.Metrics.set (morsel_size_gauge ()) (float_of_int morsel_size);
  let n_morsels = max 1 ((n + morsel_size - 1) / morsel_size) in
  let domains = max 1 (min domains n_morsels) in
  let base_mark = Arena.mark (Catalog.arena cat) in
  let states =
    Array.init domains (fun d ->
        {
          d_hier =
            Option.map
              (fun h ->
                Memsim.Hierarchy.create ~params:(Memsim.Hierarchy.params h) ())
              hier;
          d_arena =
            Arena.create ~start:(base_mark + ((d + 1) * domain_arena_stride)) ();
        })
  in
  let results : Runtime.result option array = Array.make n_morsels None in
  let ranges = make_ranges ~domains n_morsels in
  let stealing = Option.is_none hier in
  (* decided on the parent domain: workers run on domains with no session
     installed, so they can't consult Profile.on themselves *)
  let prof = Obs.Profile.on () in
  let profiles : Obs.Span.profile option array = Array.make domains None in
  let worker d =
    let st = states.(d) in
    (* each worker profiles against its private hierarchy; worker 0 runs
       on the parent domain, where start/stop save and restore the
       parent's session.  Session and pipeline setup are hoisted out of
       the claim loop: per morsel only the reslice and the step remain. *)
    let session =
      if prof then
        Some
          (Obs.Profile.start ?hier:st.d_hier
             ~label:(Printf.sprintf "domain %d" d) ())
      else None
    in
    Fun.protect
      ~finally:(fun () ->
        match session with
        | Some s -> profiles.(d) <- Some (Obs.Profile.stop s)
        | None -> ())
      (fun () ->
        let vcat, drv = domain_catalog cat st ~driver in
        let step = prepare vcat morsel_plan in
        let rec loop () =
          match claim ~stealing ranges d with
          | None -> ()
          | Some m ->
              let lo = m * morsel_size in
              let len = min morsel_size (n - lo) in
              Relation.reslice drv ~lo ~len;
              results.(m) <- Some (step ());
              loop ()
        in
        loop ())
  in
  let (), stats =
    measure
      (List.filter_map (fun st -> st.d_hier) (Array.to_list states))
      (fun () -> Pool.parallel_run ~domains worker)
  in
  if prof then
    Obs.Profile.add_domains
      (List.filter_map Fun.id (Array.to_list profiles));
  let partials =
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Parallel: unexecuted morsel")
      results
  in
  (partials, stats)

let result_columns cat plan =
  Array.map (fun (a : Schema.attr) -> a.Schema.name) (Physical.schema cat plan)

(* Apply the peeled root projections, innermost first, to the merged group
   rows. *)
let apply_projections ~params post rows =
  List.fold_left
    (fun rows exprs ->
      List.map
        (fun row ->
          Array.of_list
            (List.map (fun (e, _) -> Expr.eval e ~params (Array.get row)) exprs))
        rows)
    rows post

(* Execute [plan] on [domains] domains, counting into [hier]'s counters
   (or, split into morsels, into per-domain copies of it) when given: one
   prepared-pipeline run when the plan has no morsel shape or one domain
   is asked for, else the morsel loop and its merge. *)
let exec ~domains ?morsel_size ~prepare ?(params = [||]) ~hier cat plan =
  (match morsel_size with
   | Some m when m <= 0 -> invalid_arg "Parallel: morsel_size must be > 0"
   | _ -> ());
  match if domains <= 1 then Sequential else strategy plan with
  | Sequential -> measure (Option.to_list hier) (fun () -> prepare cat plan ())
  | Concat { driver } ->
      let partials, stats =
        run_morsels ~domains ?morsel_size ~prepare ~hier cat ~driver plan
      in
      (Runtime.concat_results (Array.to_list partials), stats)
  | Group { driver; morsel_plan; n_keys; aggs; post } ->
      let partials, stats =
        run_morsels ~domains ?morsel_size ~prepare ~hier cat ~driver
          morsel_plan
      in
      let merged = merge_group_rows ~n_keys ~aggs partials in
      let rows = apply_projections ~params post merged in
      ({ Runtime.columns = result_columns cat plan; rows }, stats)

let run ~domains ?morsel_size ~prepare ?params cat plan =
  fst (exec ~domains ?morsel_size ~prepare ?params ~hier:None cat plan)

let run_measured ~domains ?morsel_size ~prepare ?params cat plan =
  exec ~domains ?morsel_size ~prepare ?params ~hier:(Catalog.hier cat) cat
    plan
