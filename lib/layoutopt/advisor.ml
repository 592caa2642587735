module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Model = Costmodel.Model
module Pattern = Costmodel.Pattern

type recommendation = {
  table : string;
  current_layout : Storage.Layout.t;
  proposed_layout : Storage.Layout.t;
  current_cost : float;
  proposed_cost : float;
  copy_cost : float;
  net_saving : float;
  profitable : bool;
  search : Bpi.stats;
}

type t = {
  cat : Catalog.t;
  algorithm : Optimizer.algorithm;
  window : int;
  check_every : int;
  min_benefit : float;
  horizon : float;
  mutable recent : Relalg.Physical.t list; (* newest first, bounded *)
  mutable observed : int;
  mutable applied : recommendation list; (* newest first *)
}

let m_observed =
  Obs.Metrics.counter "mrdb_advisor_observed_total"
    ~help:"Plans recorded into the advisor's workload window"

let m_window =
  Obs.Metrics.gauge "mrdb_advisor_window_size"
    ~help:"Plans currently retained in the advisor's workload window"

let m_checks =
  Obs.Metrics.counter "mrdb_advisor_checks_total"
    ~help:"Advisor re-optimization passes over the observed window"

let m_repartitions =
  Obs.Metrics.counter "mrdb_advisor_repartitions_total"
    ~help:"Tables repartitioned by the layout advisor"

let m_last_saving =
  Obs.Metrics.gauge "mrdb_advisor_last_net_saving"
    ~help:"Projected net cycle saving of the most recent advisor repartition"

let create ?(algorithm = Optimizer.Ip) ?(window = 256) ?(check_every = 64)
    ?(min_benefit = 0.05) ?(horizon = 10.0) cat =
  {
    cat;
    algorithm;
    window;
    check_every;
    min_benefit;
    horizon;
    recent = [];
    observed = 0;
    applied = [];
  }

let observed t = t.observed

(* structurally identical plans merge by their printed form *)
let mix t =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun plan ->
      let key = Format.asprintf "%a" Relalg.Physical.pp plan in
      match Hashtbl.find_opt tbl key with
      | Some (p, f) -> Hashtbl.replace tbl key (p, f +. 1.0)
      | None ->
          Hashtbl.add tbl key (plan, 1.0);
          order := key :: !order)
    t.recent;
  (* deterministic order: most recently observed distinct plan first *)
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

(* sequential read + sequential write of every partition; an empty table
   costs nothing to reorganize *)
let copy_cost cat table =
  let rel = Catalog.find cat table in
  let n = Relation.nrows rel in
  if n = 0 then 0.0
  else begin
    let layout = Relation.layout rel in
    let cost = ref 0.0 in
    for p = 0 to Layout.n_partitions layout - 1 do
      let w = max 1 (Relation.part_width rel p) in
      cost :=
        !cost
        +. (2.0
           *. Costmodel.Cost_function.cost Memsim.Params.nehalem
                (Pattern.s_trav ~n ~w ()))
    done;
    !cost
  end

let recommend_table ~algorithm ~min_benefit ~horizon cat mix table =
  let rel = Catalog.find cat table in
  let current_layout = Relation.layout rel in
  let current_cost =
    Model.workload_cost ~layouts:[ (table, current_layout) ] cat mix
  in
  let result = Optimizer.optimize_table ~algorithm cat table mix in
  let proposed_layout = result.Optimizer.layout in
  let proposed_cost = result.Optimizer.estimated_cost in
  let copy_cost = copy_cost cat table in
  let saving = current_cost -. proposed_cost in
  let net_saving = (saving *. horizon) -. copy_cost in
  let profitable =
    (not (Layout.equal proposed_layout current_layout))
    && net_saving > 0.0
    && saving > min_benefit *. Float.max 1.0 current_cost
  in
  {
    table;
    current_layout;
    proposed_layout;
    current_cost;
    proposed_cost;
    copy_cost;
    net_saving;
    profitable;
    search = result.Optimizer.search;
  }

let recommend ?(algorithm = Optimizer.Ip) ?(min_benefit = 0.05)
    ?(horizon = 10.0) cat mix =
  List.map
    (recommend_table ~algorithm ~min_benefit ~horizon cat mix)
    (Optimizer.tables cat mix)

let advise t =
  Obs.Metrics.incr m_checks;
  recommend ~algorithm:t.algorithm ~min_benefit:t.min_benefit
    ~horizon:t.horizon t.cat (mix t)

let apply t recs =
  List.filter
    (fun r ->
      if not r.profitable then false
      else begin
        let rel = Catalog.find t.cat r.table in
        (* the catalog may have moved since the recommendation was computed
           (another advisor pass, an explicit optimize): only apply advice
           that still describes reality *)
        if not (Layout.equal (Relation.layout rel) r.current_layout) then
          false
        else begin
          (* one transaction per repartition: the WAL frames the layout
             change and the index rebuilds it implies, so a crash either
             keeps the old layout or recovers the new one — never a
             half-copied hybrid *)
          Catalog.in_txn t.cat (fun () ->
              Catalog.set_layout t.cat r.table r.proposed_layout);
          Obs.Metrics.incr m_repartitions;
          Obs.Metrics.set m_last_saving r.net_saving;
          t.applied <- r :: t.applied;
          true
        end
      end)
    recs

let observe t plan =
  t.observed <- t.observed + 1;
  t.recent <- plan :: t.recent;
  if t.observed > t.window then
    t.recent <- List.filteri (fun i _ -> i < t.window) t.recent;
  Obs.Metrics.incr m_observed;
  Obs.Metrics.set m_window (float_of_int (Int.min t.observed t.window));
  if t.observed mod t.check_every = 0 then apply t (advise t) else []

let applied t = List.rev t.applied
