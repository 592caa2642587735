(* The distributed executor: runs physical plans over a [Cluster], shipping
   as little as possible over the simulated interconnect.

   Plan shapes, in decreasing order of preference:

   - scan/select/project pipelines (any access path) run unchanged on every
     shard — per-shard indexes cover index access — and the coordinator
     unions the partial results in shard order;
   - group-bys over a distributable child run with [Aggregate.decompose]d
     aggregates per shard and merge at the coordinator with the exact
     machinery the morsel-parallel executor uses
     ([Parallel.merge_group_rows]), so only one group row per shard-group
     crosses the wire instead of every input row;
   - hash joins of two base-table pipelines are exchanged by whichever of
     shuffle (hash-repartition both sides) and broadcast (replicate the
     build side, probe in place) the [Cost] model prices cheaper, then the
     join itself — including any select/project layers above it — runs
     through the unmodified local engine over a shadow catalog in which the
     exchanged inputs are temp tables;
   - sorts and limits apply at the coordinator, above the distributed
     subtree;
   - DML routes through two-phase commit: inserts hash-route to one shard,
     updates compute their per-shard write sets against the live shard data
     (through [Dml.locate_updates], the loop of every engine's UPDATE) and
     commit atomically across every shard that matched;
   - anything else falls back to shipping every base table to the
     coordinator and running single-node — always correct, charged in full
     to the interconnect.

   Exchanged temp tables live only in per-query shadow catalogs (the
   [Parallel] domain-catalog pattern), so shard catalogs — and their
   durability digests — never see them. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Schema = Storage.Schema
module Value = Storage.Value
module Arena = Storage.Arena
module Layout = Storage.Layout
module Physical = Relalg.Physical
module Aggregate = Relalg.Aggregate
module Engine = Engines.Engine
module Runtime = Engines.Runtime
module Parallel = Engines.Parallel
module Dml = Engines.Dml
module Write = Storage.Write

type ctx = {
  cl : Cluster.t;
  engine : Engine.kind;
  params : Value.t array;
  coord_hier : Memsim.Hierarchy.t option;
  coord_arena : Arena.t;
}

(* Shadow-catalog arenas start far above the node's own, so simulated
   addresses never alias (the parallel executor's domain-arena idiom). *)
let exec_arena_stride = 1 lsl 36

let node0 ctx = (Cluster.nodes ctx.cl).(0)

(* Every shard, through the down-check. *)
let live_nodes ctx =
  Array.init (Cluster.shards ctx.cl) (fun k -> Cluster.node ctx.cl k)

(* {2 Shape recognition} *)

let rec scan_pipe = function
  | Physical.Scan { table; _ } -> Some table
  | Physical.Select { child; _ } | Physical.Project { child; _ } ->
      scan_pipe child
  | _ -> None

(* A hash join of two base-table pipelines, possibly under select/project
   layers, and the exchange the cost model chose for it. *)
type join = {
  build : Physical.t;
  probe : Physical.t;
  build_keys : int list;
  probe_keys : int list;
  costing : Cost.join_costing;
}

let rec join_of cl = function
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      if scan_pipe build <> None && scan_pipe probe <> None then
        Some
          {
            build;
            probe;
            build_keys;
            probe_keys;
            costing = Cost.join_costing cl ~build ~probe;
          }
      else None
  | Physical.Select { child; _ } | Physical.Project { child; _ } ->
      join_of cl child
  | _ -> None

(* What each shard runs of a distributable subtree: the subtree itself, a
   pipeline over one table, or its hash join over exchanged inputs. *)
type local = Pipeline of string | Exchanged of join

let local_of cl plan =
  match scan_pipe plan with
  | Some table -> Some (Pipeline table)
  | None -> Option.map (fun j -> Exchanged j) (join_of cl plan)

(* How a plan runs over the cluster, worked out once by [strategy]: [exec]
   runs it and [describe] prints it. *)
type strategy =
  | Limit of { n : int; child : strategy }  (** at the coordinator *)
  | Sort of {
      keys : (int * Relalg.Plan.dir) list;
      input : Physical.t;  (** the sorted subtree *)
      child : strategy;
    }  (** at the coordinator, over the gathered union *)
  | Dml of Physical.t  (** through two-phase commit *)
  | Gather of { plan : Physical.t; local : local }
      (** per shard, unioned at the coordinator *)
  | Partial_agg of {
      plan : Physical.t;
      post : (Relalg.Expr.t * string) list list;
      child : Physical.t;
      keys : (Relalg.Expr.t * string) list;
      aggs : Aggregate.t list;
      n_groups : float;
      local : local;
    }  (** decomposed per shard over [child], merged at the coordinator *)
  | Pull_all of Physical.t
      (** every base table shipped to the coordinator *)

let rec strategy cl plan =
  match plan with
  | Physical.Limit { child; n } -> Limit { n; child = strategy cl child }
  | Physical.Sort { child; keys } ->
      Sort { keys; input = child; child = strategy cl child }
  | Physical.Insert _ | Physical.Update _ -> Dml plan
  | _ -> (
      match local_of cl plan with
      | Some local -> Gather { plan; local }
      | None -> (
          match Parallel.peel_projections [] plan with
          | post, Physical.Group_by { child; keys; aggs; n_groups } -> (
              match local_of cl child with
              | Some local ->
                  Partial_agg { plan; post; child; keys; aggs; n_groups; local }
              | None -> Pull_all plan)
          | _ -> Pull_all plan))

(* Rebuild the select/project spine above the join core with the core
   replaced. *)
let rec map_join plan f =
  match plan with
  | Physical.Hash_join { build; probe; build_keys; probe_keys; match_sel } ->
      Some (f ~build ~probe ~build_keys ~probe_keys ~match_sel)
  | Physical.Select { child; pred; sel } -> (
      match map_join child f with
      | Some c -> Some (Physical.Select { child = c; pred; sel })
      | None -> None)
  | Physical.Project { child; exprs } -> (
      match map_join child f with
      | Some c -> Some (Physical.Project { child = c; exprs })
      | None -> None)
  | _ -> None

(* Tables the plan reads through an index — the only indexes a shadow
   catalog needs rebuilt. *)
let rec index_tables acc = function
  | Physical.Scan
      { table; access = Physical.Index_eq _ | Physical.Index_range _; _ } ->
      table :: acc
  | Physical.Scan _ | Physical.Insert _ -> acc
  | Physical.Select { child; _ }
  | Physical.Project { child; _ }
  | Physical.Group_by { child; _ }
  | Physical.Sort { child; _ }
  | Physical.Limit { child; _ } -> index_tables acc child
  | Physical.Hash_join { build; probe; _ } ->
      index_tables (index_tables acc build) probe
  | Physical.Update
      { table; access = Physical.Index_eq _ | Physical.Index_range _; _ } ->
      table :: acc
  | Physical.Update _ -> acc

(* {2 Shadow catalogs and exchange temp tables} *)

let add_temp vcat name attrs rows =
  let schema =
    (* every column nullable: exchanged rows are pipeline output, which the
       planner's schema may type tighter than the values in flight *)
    Schema.make_nullable name
      (Array.to_list attrs
      |> List.map (fun (a : Schema.attr) -> (a.Schema.name, a.Schema.ty, true)))
  in
  let rel = Catalog.add vcat schema (Layout.row schema) in
  match rows with
  | [] -> ()
  | _ ->
      let arr = Array.of_list rows in
      Relation.load rel ~n:(Array.length arr) (fun ~row -> arr.(row))

(* A per-query shadow catalog over [node]'s relations plus exchange temp
   tables; only indexes [for_plan] actually reads are rebuilt.  Setup work,
   untraced. *)
let localize (node : Cluster.node) ~for_plan temps =
  Memsim.Hierarchy.without_tracing node.hier (fun () ->
      let arena =
        Arena.create
          ~start:(Arena.mark (Catalog.arena node.cat) + exec_arena_stride)
          ()
      in
      let vcat = Catalog.create ~hier:node.hier ~arena () in
      List.iter
        (fun nm -> Catalog.add_relation vcat (Catalog.find node.cat nm))
        (Catalog.names node.cat);
      List.iter
        (fun nm ->
          if Catalog.mem vcat nm then
            List.iter
              (fun (iname, kind, attrs) ->
                Catalog.create_index vcat nm ~name:iname ~kind ~attrs)
              (Catalog.index_defs node.cat nm))
        (List.sort_uniq compare (index_tables [] for_plan));
      List.iter (fun (name, attrs, rows) -> add_temp vcat name attrs rows) temps;
      vcat)

let tmp_scan table =
  Physical.Scan { table; access = Physical.Full_scan; post = None; sel = 1.0 }

(* Hash partitioning: structural hash of the key values, which agrees with
   the hashtable equality the join runtimes key on. *)
let bucket_of ~keys n row =
  Hashtbl.hash (List.map (fun i -> row.(i)) keys) mod n

(* {2 Distributed execution} *)

(* Run [wrap subtree'] on every shard, where [subtree'] is the per-shard
   localization of [subtree] — unchanged for pipelines, exchange-localized
   for joins.  Returns per-shard results in shard order. *)
let per_shard ctx subtree local ~wrap =
  let nodes = live_nodes ctx in
  match local with
  | Pipeline _ ->
      Array.map
        (fun (nd : Cluster.node) ->
          Engine.run ctx.engine nd.cat (wrap subtree) ~params:ctx.params)
        nodes
  | Exchanged { build; probe; build_keys; probe_keys; costing } ->
      let net = Cluster.net ctx.cl in
      let n = Array.length nodes in
      let build_attrs = Physical.schema nodes.(0).cat build in
      let run_rows side =
        Array.map
          (fun (nd : Cluster.node) ->
            (Engine.run ctx.engine nd.cat side ~params:ctx.params).Runtime.rows)
          nodes
      in
      (match costing.Cost.chosen with
      | Cost.Broadcast ->
          let bparts = run_rows build in
          Array.iteri
            (fun src rows ->
              for dst = 0 to n - 1 do
                if dst <> src then Exchange.send_rows net ~src ~dst rows
              done)
            bparts;
          (* shard-order concatenation = global build order, so per-probe
             match order is identical to a single-node run *)
          let all_build = List.concat (Array.to_list bparts) in
          let tmpb = Cluster.temp_name ctx.cl in
          Array.map
            (fun (nd : Cluster.node) ->
              let plan' =
                Option.get
                  (map_join subtree
                     (fun ~build:_ ~probe ~build_keys ~probe_keys ~match_sel ->
                       Physical.Hash_join
                         {
                           build = tmp_scan tmpb;
                           probe;
                           build_keys;
                           probe_keys;
                           match_sel;
                         }))
              in
              let vcat =
                localize nd ~for_plan:plan' [ (tmpb, build_attrs, all_build) ]
              in
              Engine.run ctx.engine vcat (wrap plan') ~params:ctx.params)
            nodes
      | Cost.Shuffle ->
          let probe_attrs = Physical.schema nodes.(0).cat probe in
          let partition keys parts =
            let mat = Array.make_matrix n n [] in
            Array.iteri
              (fun src rows ->
                List.iter
                  (fun row ->
                    let dst = bucket_of ~keys n row in
                    mat.(src).(dst) <- row :: mat.(src).(dst))
                  rows)
              parts;
            (* concatenating in src order keeps each bucket in global row
               order *)
            Array.init n (fun dst ->
                List.concat
                  (List.init n (fun src ->
                       let rows = List.rev mat.(src).(dst) in
                       if dst <> src then Exchange.send_rows net ~src ~dst rows;
                       rows)))
          in
          let bbuckets = partition build_keys (run_rows build) in
          let pbuckets = partition probe_keys (run_rows probe) in
          let tmpb = Cluster.temp_name ctx.cl in
          let tmpp = Cluster.temp_name ctx.cl in
          Array.mapi
            (fun k (nd : Cluster.node) ->
              let plan' =
                Option.get
                  (map_join subtree
                     (fun ~build:_ ~probe:_ ~build_keys ~probe_keys ~match_sel
                     ->
                       Physical.Hash_join
                         {
                           build = tmp_scan tmpb;
                           probe = tmp_scan tmpp;
                           build_keys;
                           probe_keys;
                           match_sel;
                         }))
              in
              let vcat =
                localize nd ~for_plan:plan'
                  [
                    (tmpb, build_attrs, bbuckets.(k));
                    (tmpp, probe_attrs, pbuckets.(k));
                  ]
              in
              Engine.run ctx.engine vcat (wrap plan') ~params:ctx.params)
            nodes)

let ship_to_coordinator ctx (partials : Runtime.result array) =
  let net = Cluster.net ctx.cl in
  Array.iteri
    (fun src (r : Runtime.result) ->
      Exchange.send_rows net ~src ~dst:Netsim.coordinator r.Runtime.rows)
    partials

let gather ctx plan local =
  let partials = per_shard ctx plan local ~wrap:Fun.id in
  ship_to_coordinator ctx partials;
  Runtime.concat_results (Array.to_list partials)

let partial_agg ctx ~post ~keys ~aggs ~n_groups ~child ~local plan =
  let decomposed = List.concat_map Aggregate.decompose aggs in
  let wrap c =
    Physical.Group_by { child = c; keys; aggs = decomposed; n_groups }
  in
  let partials = per_shard ctx child local ~wrap in
  ship_to_coordinator ctx partials;
  let merged =
    Parallel.merge_group_rows ~n_keys:(List.length keys) ~aggs partials
  in
  let rows = Parallel.apply_projections ~params:ctx.params post merged in
  { Runtime.columns = Parallel.result_columns (node0 ctx).cat plan; rows }

(* No distributable shape: ship every base table to the coordinator and run
   the plan single-node there.  Always correct, charged in full to the
   interconnect. *)
let pull_all ctx plan =
  let net = Cluster.net ctx.cl in
  let nodes = live_nodes ctx in
  let ccat = Catalog.create ?hier:ctx.coord_hier ~arena:ctx.coord_arena () in
  List.iter
    (fun name ->
      let rel0 = Catalog.find nodes.(0).cat name in
      let crel =
        Catalog.add
          ~encodings:(Relation.encodings rel0)
          ccat (Relation.schema rel0) (Relation.layout rel0)
      in
      let rows =
        Array.to_list nodes
        |> List.concat_map (fun (nd : Cluster.node) ->
               let rel = Relation.with_hier (Catalog.find nd.cat name) None in
               let rows =
                 List.init (Relation.nrows rel) (Relation.get_tuple rel)
               in
               Exchange.send_rows net ~src:nd.id ~dst:Netsim.coordinator rows;
               rows)
      in
      (match rows with
      | [] -> ()
      | _ ->
          let arr = Array.of_list rows in
          Relation.load crel ~n:(Array.length arr) (fun ~row -> arr.(row)));
      List.iter
        (fun (iname, kind, attrs) ->
          Catalog.create_index ccat name ~name:iname ~kind ~attrs)
        (Catalog.index_defs nodes.(0).cat name))
    (Cluster.table_names ctx.cl);
  Engine.run ctx.engine ccat plan ~params:ctx.params

(* {2 DML through two-phase commit} *)

let exec_dml ctx plan =
  let columns =
    try Parallel.result_columns (node0 ctx).cat plan with _ -> [||]
  in
  match plan with
  | Physical.Insert { table; values } ->
      let values = Dml.values ~params:ctx.params values in
      let dst = Hashtbl.hash (Array.to_list values) mod Cluster.shards ctx.cl in
      ignore (Twopc.execute ctx.cl [ (dst, [ Write.Append { table; values } ]) ]);
      { Runtime.columns; rows = [] }
  | Physical.Update { table; access; post; assignments; _ } ->
      (* each shard's write set, located and evaluated against its live data
         by the loop every engine's UPDATE runs, recorded instead of
         applied; 2PC checks and commits it *)
      let write_set (nd : Cluster.node) =
        let ops = ref [] in
        Dml.locate_updates ~per_value:0 ~call_cost:0 nd.cat ~params:ctx.params
          ~table ~access ~post ~assignments (fun tid values ->
            List.iter
              (fun (attr, value) ->
                ops := Write.Update { table; tid; attr; value } :: !ops)
              values);
        (nd.Cluster.id, List.rev !ops)
      in
      ignore
        (Twopc.execute ctx.cl
           (List.map write_set (Array.to_list (live_nodes ctx))));
      { Runtime.columns; rows = [] }
  | _ -> invalid_arg "Exec.exec_dml: not a DML plan"

(* {2 Top level} *)

let rec exec ctx : strategy -> Runtime.result = function
  | Limit { n; child } ->
      let r = exec ctx child in
      let rec take k = function
        | [] -> []
        | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl
      in
      { r with Runtime.rows = take n r.Runtime.rows }
  | Sort { keys; input; child } ->
      let r = exec ctx child in
      let attrs = Physical.schema (node0 ctx).cat input in
      let row_width =
        Array.fold_left (fun acc a -> acc + Schema.stored_width a) 0 attrs
      in
      let rows =
        Runtime.sort_rows ?hier:ctx.coord_hier ctx.coord_arena ~row_width ~keys
          r.Runtime.rows
      in
      { r with Runtime.rows }
  | Dml plan -> exec_dml ctx plan
  | Gather { plan; local } -> gather ctx plan local
  | Partial_agg { plan; post; child; keys; aggs; n_groups; local } ->
      partial_agg ctx ~post ~keys ~aggs ~n_groups ~child ~local plan
  | Pull_all plan -> pull_all ctx plan

let make_ctx ?coord ~engine ~params cl =
  let coord_hier = Option.bind coord Catalog.hier in
  let coord_arena =
    match coord with Some c -> Catalog.arena c | None -> Arena.create ()
  in
  { cl; engine; params; coord_hier; coord_arena }

let run ?(engine = Engine.Jit) ?(params = [||]) ?coord cl plan =
  exec (make_ctx ?coord ~engine ~params cl) (strategy cl plan)

type measured = {
  stats : Memsim.Stats.t;
      (** per-shard {!Memsim.Stats.merge}: traffic sums, slowest shard's
          cycles (the simulated wall-clock) *)
  net_messages : int;
  net_bytes : int;
  net_cycles : int;
}

let total_cycles m = Memsim.Stats.total_cycles m.stats + m.net_cycles

let run_measured ?(engine = Engine.Jit) ?(params = [||]) ?coord cl plan =
  let net = Cluster.net cl in
  let snap = Netsim.snapshot net in
  let ctx = make_ctx ?coord ~engine ~params cl in
  let hiers =
    Array.to_list (Cluster.nodes cl)
    |> List.map (fun (nd : Cluster.node) -> nd.hier)
  in
  let r, stats =
    Parallel.measure hiers (fun () -> exec ctx (strategy cl plan))
  in
  let net_messages, net_bytes, net_cycles = Netsim.since net snap in
  (* surface the interconnect as its own phase (and charge the coordinator
     hierarchy) so [explain --analyze] shows a #net span *)
  (match ctx.coord_hier with
  | Some h ->
      Obs.Profile.phase "#net" (fun () -> Memsim.Hierarchy.add_cpu h net_cycles)
  | None -> ());
  (r, { stats; net_messages; net_bytes; net_cycles })

(* {2 Plan description (explain)} *)

let describe cl plan =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "shards: %d" (Cluster.shards cl);
  let join_lines = function
    | Pipeline _ -> ()
    | Exchanged { costing = c; _ } ->
        line "distributed hash join: %s" (Cost.method_name c.Cost.chosen);
        line "  shuffle   est %d B, %d msgs, %d net cycles" c.Cost.shuffle_bytes
          c.Cost.shuffle_msgs c.Cost.shuffle_cycles;
        line "  broadcast est %d B, %d msgs, %d cycles (net + extra build)"
          c.Cost.broadcast_bytes c.Cost.broadcast_msgs c.Cost.broadcast_cycles
  in
  let rec go = function
    | Limit { n; child } ->
        line "limit %d: at coordinator" n;
        go child
    | Sort { child; _ } ->
        line "sort: at coordinator, over the gathered union";
        go child
    | Dml (Physical.Insert _) ->
        line "insert: hash-routed to one shard, two-phase commit"
    | Dml _ ->
        line
          "update: per-shard operation lists, two-phase commit across \
           matching shards"
    | Gather { local = Pipeline table; _ } ->
        line "gather: per-shard pipeline over %s, union at coordinator" table
    | Gather { local; _ } -> join_lines local
    | Partial_agg { child; keys; aggs; n_groups; local; _ } ->
        let gb = Physical.Group_by { child; keys; aggs; n_groups } in
        let c = Cost.agg_costing cl ~child ~gb in
        line
          "partial aggregation: decomposed per shard, merged at coordinator";
        line "  est naive gather %d B, partial %d B" c.Cost.naive_bytes
          c.Cost.partial_bytes;
        join_lines local
    | Pull_all _ ->
        line "pull-all fallback: every base table shipped to the coordinator"
  in
  go (strategy cl plan);
  Buffer.contents b
