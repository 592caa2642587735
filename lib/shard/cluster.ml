(* A cluster of N simulated nodes, each owning a horizontal slice of every
   relation.  Shard k of a table with n rows holds rows
   [k*n/N .. (k+1)*n/N) — the same contiguous carving the parallel
   executor's morsel ranges use — re-materialized into the node's own
   catalog so each node has a private memsim hierarchy, arena, and (when
   durable) WAL + snapshot in a private Faultio env.  The coordinator keeps
   a separate env holding only the 2PC decision log.

   Scatter is setup work and runs untraced, exactly like loading a demo
   database: only query execution touches the simulated hierarchies. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Value = Storage.Value
module Faultio = Durability.Faultio
module Wal = Durability.Wal
module Snapshot = Durability.Snapshot
module Errors = Mrdb_util.Errors

type node = {
  id : int;
  cat : Catalog.t;
  hier : Memsim.Hierarchy.t;
  env : Faultio.t;
  mutable wal : Wal.writer option;  (** open writer when the cluster is durable *)
  mutable down : bool;
}

type t = {
  nodes : node array;
  net : Netsim.t;
  coord : Faultio.t;
  mutable coord_sink : Faultio.sink option;
  durable : bool;
  mutable next_txid : int;
  mutable next_tmp : int;
}

(* The Faultio store of the coordinator's decision log. *)
let decision_store = "decisions"

let shard_range ~shards ~shard n =
  let lo = shard * n / shards in
  let hi = (shard + 1) * n / shards in
  (lo, hi - lo)

let scatter_into ~shards ~shard src dst =
  List.iter
    (fun name ->
      let rel = Catalog.find src name in
      let schema = Relation.schema rel in
      let layout = Relation.layout rel in
      let encodings = Relation.encodings rel in
      let nrel = Catalog.add ~encodings dst schema layout in
      let lo, len = shard_range ~shards ~shard (Relation.nrows rel) in
      if len > 0 then begin
        (* read through an untraced view: scatter is setup work *)
        let view = Relation.with_hier rel None in
        Relation.load nrel ~n:len (fun ~row -> Relation.get_tuple view (lo + row))
      end;
      List.iter
        (fun (iname, kind, attrs) ->
          Catalog.create_index dst name ~name:iname ~kind ~attrs)
        (Catalog.index_defs src name))
    (Catalog.names src)

let create ?(durable = false) ?envs ?coord_env ~shards cat =
  if shards < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  (match envs with
  | Some e when Array.length e <> shards ->
      invalid_arg "Cluster.create: envs array must have one env per shard"
  | _ -> ());
  let params =
    match Catalog.hier cat with
    | Some h -> Memsim.Hierarchy.params h
    | None -> Memsim.Params.nehalem
  in
  let nodes =
    Array.init shards (fun k ->
        let hier = Memsim.Hierarchy.create ~params () in
        let ncat = Catalog.create ~hier () in
        scatter_into ~shards ~shard:k cat ncat;
        let env =
          match envs with Some e -> e.(k) | None -> Faultio.memory ()
        in
        let wal =
          if durable then begin
            Snapshot.write env ~last_txid:0 ncat;
            Some (Wal.create env)
          end
          else None
        in
        { id = k; cat = ncat; hier; env; wal; down = false })
  in
  let coord =
    match coord_env with Some e -> e | None -> Faultio.memory ()
  in
  let coord_sink =
    if durable then Some (Faultio.create coord decision_store) else None
  in
  {
    nodes;
    net = Netsim.create ();
    coord;
    coord_sink;
    durable;
    next_txid = 1;
    next_tmp = 0;
  }

let shards t = Array.length t.nodes
let nodes t = t.nodes

let node t k =
  if k < 0 || k >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.node: no shard %d" k);
  let n = t.nodes.(k) in
  if n.down then
    raise (Errors.Shard_unavailable (Printf.sprintf "shard %d is down" k));
  n

let net t = t.net
let durable t = t.durable
let coord_env t = t.coord
let coord_sink t = t.coord_sink

let set_down t k flag =
  if k < 0 || k >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.set_down: no shard %d" k);
  t.nodes.(k).down <- flag

let fresh_txid t =
  let id = t.next_txid in
  t.next_txid <- id + 1;
  id

let temp_name t =
  let n = t.next_tmp in
  t.next_tmp <- n + 1;
  Printf.sprintf "#tmp%d" n

(* Names of the scattered (non-temporary) relations, in catalog order. *)
let table_names t =
  List.filter
    (fun n -> String.length n = 0 || n.[0] <> '#')
    (Catalog.names t.nodes.(0).cat)

let table_rows t name =
  Array.to_list t.nodes
  |> List.concat_map (fun n ->
         let rel = Relation.with_hier (Catalog.find n.cat name) None in
         let rows = ref [] in
         for tid = Relation.nrows rel - 1 downto 0 do
           rows := Relation.get_tuple rel tid :: !rows
         done;
         !rows)

let digests t =
  Array.to_list t.nodes |> List.map (fun n -> Snapshot.digest n.cat)

let close t =
  Array.iter
    (fun n ->
      match n.wal with
      | Some w ->
          Wal.close w;
          n.wal <- None
      | None -> ())
    t.nodes;
  match t.coord_sink with
  | Some s ->
      Faultio.close s;
      t.coord_sink <- None
  | None -> ()
