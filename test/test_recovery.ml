(* Durability and crash recovery.

   The centerpiece is an exhaustive crash-point matrix: a scripted workload
   (loads, index build, SQL updates, a repartition, a checkpoint, more
   updates, appends) runs against the fault-injectable store once reliably —
   recording the catalog digest after every committed step — and then once
   per (crash point × torn-write fraction).  After every simulated crash,
   recovery must produce a catalog value-identical to one of the committed
   states, and at least as recent as the last step whose effects were fully
   durable before the crash. *)

module V = Storage.Value
module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema
module Encoding = Storage.Encoding
module Write = Storage.Write
module F = Durability.Faultio
module D = Durability.Durable
module Wal = Durability.Wal
module Snapshot = Durability.Snapshot
module Recover = Durability.Recover
module Codec = Durability.Codec
module Checksum = Durability.Checksum

(* ------------------------------------------------------------------ *)
(* The scripted workload                                              *)
(* ------------------------------------------------------------------ *)

let schema =
  Schema.make "t"
    [ ("id", V.Int); ("grp", V.Int); ("amount", V.Int); ("name", V.Varchar 12) ]

let initial_row row =
  [|
    V.VInt row;
    V.VInt (row mod 5);
    V.VInt (row * 3 mod 101);
    V.VStr (Printf.sprintf "n%03d" row);
  |]

let run_update cat sql =
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  ignore (Engines.Engine.run Engines.Engine.Jit cat plan ~params:[||])

(* Run the workload against [env], recording [(step, digest, points_after)]
   after every committed step.  Raises [Faultio.Crash] mid-way when the
   env's plan says so. *)
let run_script env =
  let hier = Memsim.Hierarchy.create () in
  let cat = Catalog.create ~hier () in
  let marks = ref [ ("empty", Snapshot.digest cat, 0) ] in
  let mark step = marks := (step, Snapshot.digest cat, F.points env) :: !marks in
  let d = D.attach env cat in
  mark "attach";
  Catalog.in_txn cat (fun () ->
      ignore (Catalog.add cat schema (Layout.row schema));
      Write.apply cat
        (Write.Load { table = "t"; rows = Array.init 40 initial_row }));
  mark "load";
  Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  mark "index";
  run_update cat "update t set amount = 999 where grp = 2";
  mark "update1";
  (* what Layoutopt.Advisor does when it decides to repartition *)
  Catalog.in_txn cat (fun () ->
      Catalog.set_layout cat "t"
        (Layout.of_names schema [ [ "id"; "grp" ]; [ "amount"; "name" ] ]));
  mark "repartition";
  D.checkpoint d;
  mark "checkpoint";
  run_update cat "update t set name = 'patched' where id = 7";
  mark "update2";
  Catalog.in_txn cat (fun () ->
      for row = 40 to 44 do
        Write.apply cat (Write.Append { table = "t"; values = initial_row row })
      done);
  mark "append";
  D.detach d;
  List.rev !marks

(* The dry run: digests of every committed state and the total number of
   crash points the workload passes. *)
let dry_run () =
  let env = F.memory () in
  let marks = run_script env in
  (marks, F.points env)

let digest_index marks dg =
  (* latest step with this digest (checkpoint does not change the state, so
     digests need not be unique) *)
  let best = ref (-1) in
  List.iteri (fun i (_, d, _) -> if d = dg then best := i) marks;
  !best

let recover_digest env =
  F.set_plan env F.Reliable;
  let r = Recover.run env in
  (Snapshot.digest r.Recover.cat, r)

(* ------------------------------------------------------------------ *)
(* Exhaustive crash-point matrix                                      *)
(* ------------------------------------------------------------------ *)

let test_crash_matrix () =
  let marks, total = dry_run () in
  Alcotest.(check bool) "workload passes crash points" true (total > 20);
  let checked = ref 0 in
  List.iter
    (fun torn ->
      for point = 1 to total do
        let env = F.memory ~plan:(F.Crash_at { point; torn }) () in
        (match run_script env with
        | _ ->
            Alcotest.failf "point %d torn %.1f: expected a crash" point torn
        | exception F.Crash _ -> ());
        let dg, r = recover_digest env in
        let idx = digest_index marks dg in
        if idx < 0 then
          Alcotest.failf
            "point %d torn %.1f: recovered state matches no committed state \
             (warnings: %s)"
            point torn
            (String.concat " | " r.Recover.warnings);
        (* every step whose crash points all happened before this crash was
           fully flushed — recovery must be at least that recent *)
        let floor = ref 0 in
        List.iteri
          (fun i (_, _, pts) -> if pts < point && i > !floor then floor := i)
          marks;
        if idx < !floor then
          Alcotest.failf
            "point %d torn %.1f: recovered %S but %S was already durable"
            point torn
            (let s, _, _ = List.nth marks idx in
             s)
            (let s, _, _ = List.nth marks !floor in
             s);
        incr checked
      done)
    [ 0.0; 0.5; 1.0 ];
  Alcotest.(check bool) "matrix covered" true (!checked >= 3 * total)

(* ------------------------------------------------------------------ *)
(* Corruption                                                         *)
(* ------------------------------------------------------------------ *)

let test_corrupt_wal_record () =
  let marks, _ = dry_run () in
  let env = F.memory () in
  ignore (run_script env);
  let size = F.durable_size env Wal.store_name in
  Alcotest.(check bool) "wal non-empty" true (size > 0);
  F.corrupt_byte env Wal.store_name (size / 2);
  let dg, r = recover_digest env in
  Alcotest.(check bool) "corruption warned about" true
    (r.Recover.warnings <> []);
  Alcotest.(check bool) "recovered a committed state" true
    (digest_index marks dg >= 0)

let test_corrupt_snapshot () =
  let marks, _ = dry_run () in
  let env = F.memory () in
  ignore (run_script env);
  F.corrupt_byte env Snapshot.store_name
    (F.durable_size env Snapshot.store_name / 2);
  let dg, r = recover_digest env in
  Alcotest.(check bool) "corruption warned about" true
    (r.Recover.warnings <> []);
  (* the snapshot is gone; the post-checkpoint WAL still replays against an
     empty catalog or not at all — never a crash *)
  ignore dg;
  ignore marks

let test_missing_everything () =
  let env = F.memory () in
  let r = Recover.run env in
  Alcotest.(check int) "no transactions" 0 r.Recover.replayed;
  Alcotest.(check (list string)) "no tables" []
    (Catalog.names r.Recover.cat)

(* ------------------------------------------------------------------ *)
(* Crash points inside an advisor-triggered reorganization            *)
(* ------------------------------------------------------------------ *)

(* The online layout advisor — not a scripted [set_layout] — performs the
   repartition against a durability-attached catalog, and the run is
   crashed at every injected WAL fault point.  The advisor's reorganization
   runs inside [Catalog.in_txn], so recovery must land on a committed
   mark's digest: either the repartition replayed whole or it vanished
   whole, never a half-moved table. *)
let run_advisor_script env =
  let cat = Catalog.create () in
  let marks = ref [ ("empty", Snapshot.digest cat, 0) ] in
  let mark step = marks := (step, Snapshot.digest cat, F.points env) :: !marks in
  let d = D.attach env cat in
  mark "attach";
  Catalog.in_txn cat (fun () ->
      ignore (Catalog.add cat schema (Layout.row schema));
      Write.apply cat
        (Write.Load { table = "t"; rows = Array.init 24 initial_row }));
  mark "load";
  (* a narrow aggregate mix: decomposing [amount] out is profitable, so a
     trigger-happy advisor reorganizes on the first check *)
  let narrow =
    Relalg.Planner.plan cat
      (Relalg.Plan.Group_by
         {
           child = Relalg.Plan.Scan "t";
           keys = [];
           aggs =
             [ Relalg.Aggregate.(make Sum ~expr:(Relalg.Expr.Col 2) "s") ];
         })
  in
  let adv =
    Layoutopt.Advisor.create ~window:4 ~check_every:1 ~min_benefit:0.0
      ~horizon:1e9 cat
  in
  let repartitions = ref 0 in
  for _ = 1 to 4 do
    repartitions :=
      !repartitions + List.length (Layoutopt.Advisor.observe adv narrow)
  done;
  mark "advisor-repartition";
  run_update cat "update t set amount = 5 where grp = 1";
  mark "update";
  D.detach d;
  let nparts =
    Storage.Layout.n_partitions (Relation.layout (Catalog.find cat "t"))
  in
  (List.rev !marks, !repartitions, nparts)

let test_advisor_repartition_crash_points () =
  (* dry run: the advisor must actually reorganize *)
  let env = F.memory () in
  let marks, repartitions, nparts = run_advisor_script env in
  let total = F.points env in
  Alcotest.(check bool) "advisor repartitioned" true (repartitions > 0);
  Alcotest.(check bool) "table decomposed" true (nparts > 1);
  Alcotest.(check bool) "workload passes crash points" true (total > 5);
  List.iter
    (fun torn ->
      for point = 1 to total do
        let env = F.memory ~plan:(F.Crash_at { point; torn }) () in
        (match run_advisor_script env with
        | _ ->
            Alcotest.failf "point %d torn %.1f: expected a crash" point torn
        | exception F.Crash _ -> ());
        let dg, r = recover_digest env in
        let idx = digest_index marks dg in
        if idx < 0 then
          Alcotest.failf
            "point %d torn %.1f: recovered state matches no committed state \
             (warnings: %s)"
            point torn
            (String.concat " | " r.Recover.warnings);
        let floor = ref 0 in
        List.iteri
          (fun i (_, _, pts) -> if pts < point && i > !floor then floor := i)
          marks;
        if idx < !floor then
          Alcotest.failf
            "point %d torn %.1f: recovered %S but %S was already durable"
            point torn
            (let s, _, _ = List.nth marks idx in
             s)
            (let s, _, _ = List.nth marks !floor in
             s)
      done)
    [ 0.0; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Seeded soak                                                        *)
(* ------------------------------------------------------------------ *)

let soak_rounds () =
  match Sys.getenv_opt "MRDB_RECOVERY_SOAK" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 10)
  | None -> 10

let soak_seed () =
  match Sys.getenv_opt "MRDB_RECOVERY_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0x5eed)
  | None -> 0x5eed

let test_seeded_soak () =
  let marks, _ = dry_run () in
  let base = soak_seed () in
  for round = 1 to soak_rounds () do
    let seed = base + round in
    let env =
      F.memory ~plan:(F.Seeded { seed; mean_period = 11 }) ()
    in
    (match run_script env with
    | _ -> () (* the seed let the whole workload through *)
    | exception F.Crash _ -> ());
    let dg, r = recover_digest env in
    if digest_index marks dg < 0 then
      Alcotest.failf "seed %d: recovered state matches no committed state \
                      (warnings: %s)"
        seed
        (String.concat " | " r.Recover.warnings)
  done

(* ------------------------------------------------------------------ *)
(* QCheck: codec round trips and torn prefixes                        *)
(* ------------------------------------------------------------------ *)

let gen_value ty : V.t QCheck.Gen.t =
  let open QCheck.Gen in
  match (ty : V.ty) with
  | V.Int -> map (fun i -> V.VInt i) (int_range (-1_000_000) 1_000_000)
  | V.Float -> map (fun f -> V.VFloat f) (float_bound_inclusive 1e6)
  | V.Bool -> map (fun b -> V.VBool b) bool
  | V.Date -> map (fun d -> V.VDate d) (int_range 0 40_000)
  | V.Varchar n ->
      map (fun s -> V.VStr s) (string_size ~gen:printable (int_range 0 n))

let gen_ty : V.ty QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return V.Int;
      QCheck.Gen.return V.Float;
      QCheck.Gen.return V.Bool;
      QCheck.Gen.return V.Date;
      QCheck.Gen.map (fun n -> V.Varchar n) (QCheck.Gen.int_range 1 16);
    ]

let gen_schema name : Schema.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* arity = int_range 1 5 in
  let* attrs =
    flatten_l
      (List.init arity (fun i ->
           let* ty = gen_ty in
           let* nullable = bool in
           return (Printf.sprintf "a%d" i, ty, nullable)))
  in
  return (Schema.make_nullable name attrs)

(* a random partition of [0 .. arity-1] into contiguous-free groups *)
let gen_groups arity : int list list QCheck.Gen.t =
  let open QCheck.Gen in
  let* shuffled = shuffle_l (List.init arity Fun.id) in
  let rec cut acc rest =
    match rest with
    | [] -> return (List.rev acc)
    | _ ->
        let* k = int_range 1 (List.length rest) in
        let g = List.filteri (fun i _ -> i < k) rest in
        let rest = List.filteri (fun i _ -> i >= k) rest in
        cut (g :: acc) rest
  in
  cut [] shuffled

let gen_encodings schema groups : (int * Encoding.t) list QCheck.Gen.t =
  let open QCheck.Gen in
  let singleton a =
    List.exists (function [ b ] -> a = b | _ -> false) groups
  in
  flatten_l
    (List.init (Schema.arity schema) (fun a ->
         let attr = Schema.attr schema a in
         let* pick = int_range 0 5 in
         let* width = oneofl [ 1; 2; 4 ] in
         let enc =
           match (pick, attr.Schema.ty) with
           | 1, _ -> Encoding.Dict
           | 2, _ when attr.Schema.nullable && singleton a -> Encoding.Sparse
           | 3, _ when singleton a -> Encoding.Rle
           | 4, (V.Int | V.Date) -> Encoding.For_bp width
           | _ -> Encoding.Plain
         in
         return (a, enc)))
  |> fun g -> map (List.filter (fun (_, e) -> e <> Encoding.Plain)) g

let gen_row schema : V.t array QCheck.Gen.t =
  let open QCheck.Gen in
  flatten_a
    (Array.init (Schema.arity schema) (fun a ->
         let attr = Schema.attr schema a in
         if attr.Schema.nullable then
           let* null = int_range 0 3 in
           if null = 0 then return V.Null else gen_value attr.Schema.ty
         else gen_value attr.Schema.ty))

(* In-place updates after the load: per field, 0 sets a nullable non-NULL
   field to NULL (a Plain field keeps its stale payload behind the null
   byte) and 1 rewrites a varchar with a shorter string. *)
let update_pass rel updates =
  List.iteri
    (fun tid actions ->
      List.iteri
        (fun a action ->
          let attr = Schema.attr (Relation.schema rel) a in
          match (action, Relation.get rel tid a) with
          | 0, v when attr.Schema.nullable && not (V.is_null v) ->
              Relation.set rel tid a V.Null
          | 1, V.VStr s when s <> "" ->
              Relation.set rel tid a
                (V.VStr (String.sub s 0 (String.length s / 2)))
          | _ -> ())
        actions)
    updates

(* a small random catalog: schemas, layouts, encodings, rows, updates, an
   index *)
let gen_catalog : Catalog.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* ntables = int_range 1 3 in
  let* specs =
    flatten_l
      (List.init ntables (fun i ->
           let* schema = gen_schema (Printf.sprintf "t%d" i) in
           let* groups = gen_groups (Schema.arity schema) in
           let* encodings = gen_encodings schema groups in
           let* nrows = int_range 0 12 in
           let* rows = flatten_l (List.init nrows (fun _ -> gen_row schema)) in
           let* updates =
             flatten_l
               (List.init nrows (fun _ ->
                    flatten_l
                      (List.init (Schema.arity schema) (fun _ ->
                           int_range 0 3))))
           in
           let* want_index = bool in
           return (schema, groups, encodings, rows, updates, want_index)))
  in
  let cat = Catalog.create () in
  List.iter
    (fun (schema, groups, encodings, rows, updates, want_index) ->
      let rel =
        Catalog.add ~encodings cat schema (Layout.of_indices schema groups)
      in
      List.iter (fun row -> ignore (Relation.append rel row)) rows;
      update_pass rel updates;
      (* hash-index the first non-nullable attribute, if any *)
      if want_index then
        Array.to_list schema.Schema.attrs
        |> List.find_opt (fun (a : Schema.attr) -> not a.Schema.nullable)
        |> Option.iter (fun (a : Schema.attr) ->
               Catalog.create_index cat schema.Schema.name ~name:"qidx"
                 ~kind:Storage.Index.Hash ~attrs:[ a.Schema.name ]))
    specs;
  return cat

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~count:100 ~name:"snapshot payload round-trips"
    (QCheck.make gen_catalog)
    (fun cat ->
      let payload = Snapshot.serialize_payload ~last_txid:42 cat in
      let cat', txid = Snapshot.deserialize_payload payload in
      txid = 42 && Snapshot.digest cat' = Snapshot.digest cat)

(* The value-at-a-time snapshot encoder, kept as the oracle of the one that
   copies fields straight from partition bytes: every row boxed through
   [Relation.get_tuple], every field through [Codec.value]. *)
let reference_state cat =
  let w = Codec.writer () in
  let names = Catalog.names cat in
  Codec.u32 w (List.length names);
  List.iter
    (fun name ->
      let rel = Catalog.find cat name in
      Codec.schema w (Relation.schema rel);
      Codec.layout_groups w (Layout.to_groups (Relation.layout rel));
      Codec.encodings w (Relation.encodings rel);
      Codec.i64 w (Relation.nrows rel);
      for tid = 0 to Relation.nrows rel - 1 do
        Array.iter (Codec.value w) (Relation.get_tuple rel tid)
      done;
      Codec.list w
        (fun w (iname, kind, attrs) ->
          Codec.str w iname;
          Codec.index_kind w kind;
          Codec.list w Codec.str attrs)
        (List.sort compare (Catalog.index_defs cat name)))
    names;
  Codec.contents w

let qcheck_state_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"snapshot state equals value-at-a-time encoder"
    (QCheck.make gen_catalog)
    (fun cat -> Snapshot.serialize_state cat = reference_state cat)

let gen_op : Wal.op QCheck.Gen.t =
  let open QCheck.Gen in
  let* schema = gen_schema "w" in
  let* groups = gen_groups (Schema.arity schema) in
  let* encodings = gen_encodings schema groups in
  let* row = gen_row schema in
  let* tid = int_range 0 1000 in
  oneofl
    [
      Storage.Write.Create_relation { table = "w"; schema; layout = groups; encodings };
      Storage.Write.Append { table = "w"; values = row };
      Storage.Write.Load { table = "w"; rows = [| row; row |] };
      Storage.Write.Update { table = "w"; tid; attr = 0; value = row.(0) };
      Storage.Write.Set_layout { table = "w"; layout = groups };
      Storage.Write.Create_index
        { table = "w"; iname = "i"; kind = Storage.Index.Rbtree;
          attrs = [ "a0" ] };
    ]

let gen_record : Wal.record QCheck.Gen.t =
  let open QCheck.Gen in
  let* txid = int_range 0 100_000 in
  let* op = gen_op in
  oneofl
    [ Wal.Begin txid; Wal.Commit txid; Wal.Abort txid; Wal.Op { txid; op } ]

let qcheck_wal_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wal record round-trips"
    (QCheck.make gen_record)
    (fun record -> Wal.decode_string (Wal.encode record) = record)

let qcheck_torn_prefix =
  (* cutting the WAL at ANY byte still recovers a committed state *)
  let marks, _ = dry_run () in
  QCheck.Test.make ~count:60 ~name:"torn wal prefix recovers committed state"
    QCheck.(float_bound_inclusive 1.0)
    (fun frac ->
      let env = F.memory () in
      ignore (run_script env);
      let size = F.durable_size env Wal.store_name in
      F.truncate_store env Wal.store_name
        (int_of_float (frac *. float_of_int size));
      let dg, _ = recover_digest env in
      digest_index marks dg >= 0)

(* ------------------------------------------------------------------ *)
(* Hot path isolation                                                 *)
(* ------------------------------------------------------------------ *)

let measured_update ~durable () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Catalog.create ~hier () in
  let rel = Catalog.add cat schema (Layout.row schema) in
  Relation.load rel ~n:200 (fun ~row -> initial_row row);
  let d = if durable then Some (D.attach (F.memory ()) cat) else None in
  let plan =
    Relalg.Planner.plan cat
      (Relalg.Sql.parse cat "update t set amount = 1 where grp = 3")
  in
  let _, st =
    Engines.Engine.run_measured Engines.Engine.Jit cat plan ~params:[||]
  in
  Option.iter D.detach d;
  st

let test_counters_unchanged () =
  let plain = measured_update ~durable:false () in
  let logged = measured_update ~durable:true () in
  Alcotest.(check int) "identical simulated cycles"
    (Memsim.Stats.total_cycles plain)
    (Memsim.Stats.total_cycles logged);
  Alcotest.(check int) "identical sequential misses"
    plain.Memsim.Stats.llc_seq_misses logged.Memsim.Stats.llc_seq_misses;
  Alcotest.(check int) "identical random misses"
    plain.Memsim.Stats.llc_rand_misses logged.Memsim.Stats.llc_rand_misses

(* ------------------------------------------------------------------ *)
(* Snapshot format and CRC-32 pins                                    *)
(* ------------------------------------------------------------------ *)

(* Bytes of a CH snapshot as the value-at-a-time writer produced them: the
   store's MD5 and length, and the state digest every oracle compares. *)
let test_pinned_snapshot_bytes () =
  let cat = (Workloads.Ch.build ~scale:0.05 ()).Workloads.Ch.cat in
  let env = F.memory () in
  Snapshot.write env ~last_txid:7 cat;
  let b = Option.get (F.read_all env Snapshot.store_name) in
  Alcotest.(check int) "store bytes" 1_427_393 (Bytes.length b);
  Alcotest.(check string) "store md5" "8c311d3c121f075ef2813e566b8fce16"
    (Digest.to_hex (Digest.bytes b));
  Alcotest.(check string) "state digest" "26fb838e5dc97d8ffbf38ef414724675"
    (Snapshot.digest cat);
  match Snapshot.read env with
  | Snapshot.Loaded (cat', txid) ->
      Alcotest.(check int) "watermark" 7 txid;
      Alcotest.(check string) "reloads" (Snapshot.digest cat)
        (Snapshot.digest cat')
  | Snapshot.Missing | Snapshot.Invalid _ -> Alcotest.fail "snapshot unreadable"

(* The logs one fixed episode writes through every writer of the catalog's
   write vocabulary: a Jit INSERT, a Jit UPDATE of 3 rows and an MVCC commit
   of 2 SETs and 1 INSERT on one durable node, then one two-phase commit on
   a 2-shard durable cluster (both participants' WALs and the coordinator's
   decision log).  The op codec, the op order inside a transaction and the
   framing all show in these bytes. *)
let test_pinned_wal_bytes () =
  let ten () =
    let cat = Catalog.create ~hier:(Memsim.Hierarchy.create ()) () in
    let rel = Catalog.add cat schema (Layout.row schema) in
    Relation.load rel ~n:10 (fun ~row -> initial_row row);
    cat
  in
  let env = F.memory () in
  let cat = ten () in
  let d = D.attach env cat in
  run_update cat "insert into t values (10, 0, 30, 'n010')";
  run_update cat "update t set amount = amount + 1 where grp = 0";
  let mgr = Txn.Mvcc.create cat in
  Txn.Mvcc.run mgr (fun txn ->
      Txn.Mvcc.update txn "t" 1 2 (V.VInt 500);
      Txn.Mvcc.update txn "t" 2 3 (V.VStr "mvcc");
      Txn.Mvcc.insert txn "t" (initial_row 11));
  D.detach d;
  let envs = [| F.memory (); F.memory () |] and coord_env = F.memory () in
  let src = ten () in
  let cl = Shard.Cluster.create ~durable:true ~envs ~coord_env ~shards:2 src in
  let plan =
    Relalg.Planner.plan src
      (Relalg.Sql.parse src "update t set amount = id * 2 where grp = 1")
  in
  ignore (Shard.Exec.run cl plan);
  Shard.Cluster.close cl;
  let pin env store =
    let b = Option.get (F.read_all env store) in
    (Bytes.length b, Digest.to_hex (Digest.bytes b))
  in
  Alcotest.(check (list (pair int string)))
    "log lengths and md5s"
    [
      (448, "0acbb62bd275d168488efe57e89d8125");
      (95, "c33018d679e469c0eb2f9ca6b1c081d3");
      (95, "3a9ac422f1362c64733b2518420b03de");
      (16, "3d125d3e628cb669124a798ee3aa5570");
    ]
    [
      pin env Wal.store_name;
      pin envs.(0) Wal.store_name;
      pin envs.(1) Wal.store_name;
      pin coord_env Shard.Cluster.decision_store;
    ]

(* bit-at-a-time CRC-32: independent of the lookup tables *)
let crc_reference b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let random_bytes ~seed n =
  let st = Random.State.make [| seed |] in
  Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

let test_crc32 () =
  Alcotest.(check int) "known answer" 0xCBF43926 (Checksum.string "123456789");
  Alcotest.(check int) "empty" 0 (Checksum.string "");
  let b = random_bytes ~seed:11 72 in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "pos %d len %d" pos len)
        (crc_reference b ~pos ~len)
        (Checksum.bytes b ~pos ~len)
    done
  done;
  let big = random_bytes ~seed:12 ((3 lsl 20) + 5) in
  Alcotest.(check int) "3 MiB + 5"
    (crc_reference big ~pos:0 ~len:(Bytes.length big))
    (Checksum.bytes big ~pos:0 ~len:(Bytes.length big))

(* attach and checkpoint each pass exactly these named points: the header
   and the payload of a snapshot stay two writes *)
let test_snapshot_crash_points () =
  let expected =
    [
      ("create:snapshot.tmp", 1);
      ("create:wal", 1);
      ("flush:snapshot.tmp", 1);
      ("rename:snapshot", 1);
      ("write:snapshot.tmp", 2);
    ]
  in
  let env = F.memory () in
  let cat = Catalog.create () in
  let rel = Catalog.add cat schema (Layout.row schema) in
  Relation.load rel ~n:10 (fun ~row -> initial_row row);
  let d = D.attach env cat in
  Alcotest.(check (list (pair string int))) "attach" expected
    (F.named_points env);
  F.reset_points env;
  D.checkpoint d;
  Alcotest.(check (list (pair string int))) "checkpoint" expected
    (F.named_points env);
  D.detach d

(* ------------------------------------------------------------------ *)
(* Checksum-valid but malformed input                                 *)
(* ------------------------------------------------------------------ *)

(* a frame around a hand-built payload, its CRC recomputed, so only the
   payload's meaning is wrong *)
let framed payload =
  let w = Codec.writer () in
  Codec.u32 w (String.length payload);
  Codec.u32 w (Checksum.string payload);
  Codec.raw w payload;
  Codec.contents w

let put env name bytes =
  let sink = F.create env name in
  F.write sink bytes;
  F.flush sink;
  F.close sink

let one_int = Schema.make "t" [ ("a", V.Int) ]

let test_snapshot_unknown_index_attr () =
  let w = Codec.writer () in
  Codec.raw w "MRDBSNP1";
  Codec.i64 w 0;
  Codec.u32 w 1;
  Codec.schema w one_int;
  Codec.layout_groups w [ [ 0 ] ];
  Codec.encodings w [];
  Codec.i64 w 1;
  Codec.value w (V.VInt 5);
  Codec.u32 w 1;
  Codec.str w "ix";
  Codec.index_kind w Storage.Index.Hash;
  Codec.list w Codec.str [ "missing" ];
  let env = F.memory () in
  put env Snapshot.store_name (framed (Codec.contents w));
  (match Snapshot.read env with
  | Snapshot.Invalid _ -> ()
  | Snapshot.Loaded _ -> Alcotest.fail "loaded an index on an unknown attribute"
  | Snapshot.Missing -> Alcotest.fail "snapshot missing");
  let r = Recover.run env in
  Alcotest.(check bool) "warned" true (r.Recover.warnings <> []);
  Alcotest.(check (list string)) "empty catalog" []
    (Catalog.names r.Recover.cat)

let test_wal_unknown_encoding () =
  let w = Codec.writer () in
  Codec.u8 w 4 (* Op *);
  Codec.i64 w 1;
  Codec.u8 w 1 (* Create_relation *);
  Codec.str w "t";
  Codec.schema w one_int;
  Codec.layout_groups w [ [ 0 ] ];
  Codec.u32 w 1;
  Codec.u32 w 0;
  Codec.u8 w 9 (* no such encoding *);
  let env = F.memory () in
  put env Wal.store_name
    (framed (Wal.encode (Wal.Begin 1))
    ^ framed (Codec.contents w)
    ^ framed (Wal.encode (Wal.Commit 1)));
  let scanned = Wal.scan env in
  Alcotest.(check int) "clean prefix ends at the bad record" 1
    scanned.Wal.clean;
  Alcotest.(check int) "the other records decode" 2
    (List.length scanned.Wal.records);
  Alcotest.(check bool) "skip warned" true
    (List.exists
       (String.starts_with ~prefix:"wal: undecodable record")
       scanned.Wal.warnings);
  let r = Recover.run env in
  Alcotest.(check int) "nothing replayed" 0 r.Recover.replayed;
  Alcotest.(check (list string)) "empty catalog" []
    (Catalog.names r.Recover.cat)

(* ------------------------------------------------------------------ *)
(* Every writer is logged, as it was handed its op                     *)
(* ------------------------------------------------------------------ *)

let csv_file contents =
  let path = Filename.temp_file "mrdb_logged" ".csv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let with_csv contents f =
  let path = csv_file contents in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Each writer of the catalog, run on ten rows of [t] with an index on
   [id]. *)
let writers : (string * (Catalog.t -> unit)) list =
  let u = Schema.make "u" [ ("a", V.Int) ] in
  [
    ("Catalog.add", fun cat -> ignore (Catalog.add cat u (Layout.row u)));
    ( "Write.apply Append",
      fun cat ->
        Write.apply cat (Write.Append { table = "t"; values = initial_row 10 })
    );
    ( "Write.apply Update",
      fun cat ->
        Write.apply cat
          (Write.Update { table = "t"; tid = 3; attr = 2; value = V.VInt 77 })
    );
    ( "Write.apply Load",
      fun cat ->
        Write.apply cat
          (Write.Load
             {
               table = "t";
               rows = Array.init 3 (fun i -> initial_row (10 + i));
             })
    );
    ( "Write.apply_all",
      fun cat ->
        Write.apply_all cat
          [
            Write.Update { table = "t"; tid = 4; attr = 0; value = V.VInt 40 };
            Write.Append { table = "t"; values = initial_row 10 };
          ] );
    ( "Jit INSERT",
      fun cat -> run_update cat "insert into t values (10, 0, 30, 'n010')" );
    ( "Jit UPDATE",
      fun cat -> run_update cat "update t set amount = amount + 1 where grp = 0"
    );
    ( "MVCC commit",
      fun cat ->
        Txn.Mvcc.run (Txn.Mvcc.create cat) (fun txn ->
            Txn.Mvcc.update txn "t" 1 2 (V.VInt 500);
            Txn.Mvcc.insert txn "t" (initial_row 11)) );
    ( "Csv.import",
      fun cat ->
        with_csv "id,grp,amount,name\n10,0,1,x\n11,1,2,y\n" (fun path ->
            ignore (Storage.Csv.import cat ~table:"t" path)) );
    ( "Csv.import_new",
      fun cat ->
        with_csv "k,label\n1,a\n2,b\n" (fun path ->
            ignore (Storage.Csv.import_new cat ~name:"c" path)) );
    ( "Catalog.set_layout",
      fun cat -> Catalog.set_layout cat "t" (Layout.column schema) );
    ( "Catalog.set_physical",
      fun cat -> Catalog.set_physical cat "t" [ (1, Encoding.Dict) ] );
    ( "Catalog.create_index",
      fun cat ->
        Catalog.create_index cat "t" ~name:"by_grp" ~kind:Storage.Index.Hash
          ~attrs:[ "grp" ] );
  ]

let test_every_writer_logged () =
  List.iter
    (fun (name, write) ->
      let cat = Catalog.create ~hier:(Memsim.Hierarchy.create ()) () in
      let rel = Catalog.add cat schema (Layout.row schema) in
      Relation.load rel ~n:10 (fun ~row -> initial_row row);
      Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
        ~attrs:[ "id" ];
      let before = Snapshot.digest cat in
      let env = F.memory () in
      let d = D.attach env cat in
      write cat;
      D.detach d;
      let live = Snapshot.digest cat in
      Alcotest.(check bool) (name ^ " wrote") true (live <> before);
      let r = Recover.run env in
      Alcotest.(check (list string))
        (name ^ " log clean") [] r.Recover.warnings;
      Alcotest.(check string) (name ^ " recovered") live
        (Snapshot.digest r.Recover.cat))
    writers

(* Storage coerces what the check accepts: a float into an Int, an
   over-long string into a Varchar 4, an int into a Float.  The log holds
   the values the writer gave, and replay coerces them the same way. *)
let test_wal_logs_values_as_given () =
  let c =
    Schema.make "c" [ ("i", V.Int); ("s", V.Varchar 4); ("f", V.Float) ]
  in
  let values = [| V.VFloat 3.7; V.VStr "abcdefgh"; V.VInt 5 |] in
  let op = Write.Append { table = "c"; values } in
  let env = F.memory () in
  let cat = Catalog.create () in
  let d = D.attach env cat in
  ignore (Catalog.add cat c (Layout.row c));
  Write.apply cat op;
  D.detach d;
  Alcotest.(check bool) "storage coerced the row" true
    (Relation.get_tuple (Catalog.find cat "c") 0 <> values);
  let logged =
    List.filter_map
      (function Wal.Op { op; _ } -> Some op | _ -> None)
      (Wal.scan env).Wal.records
  in
  Alcotest.(check bool) "the applied op is the logged one" true
    (List.nth logged (List.length logged - 1) = op);
  Alcotest.(check string) "recovered" (Snapshot.digest cat)
    (Snapshot.digest (Recover.run env).Recover.cat)

(* A commit acknowledged after recovering a log whose last record is torn
   must survive the next recovery: the recovered writer cuts the torn tail
   before appending. *)
let test_commit_after_torn_recovery () =
  let a cat = Relation.get (Catalog.find cat "t") 0 0 in
  let set cat v =
    Write.apply cat (Write.Update { table = "t"; tid = 0; attr = 0; value = v })
  in
  let env = F.memory () in
  let cat = Catalog.create () in
  let d = D.attach env cat in
  ignore (Catalog.add cat one_int (Layout.row one_int));
  Write.apply cat (Write.Append { table = "t"; values = [| V.VInt 1 |] });
  set cat (V.VInt 5);
  D.detach d;
  F.truncate_store env Wal.store_name (F.durable_size env Wal.store_name - 3);
  let r, d = D.recover env in
  Alcotest.(check bool) "the tear is seen" true (r.Recover.warnings <> []);
  Alcotest.check Helpers.value_testable "torn update dropped" (V.VInt 1)
    (a r.Recover.cat);
  set (D.catalog d) (V.VInt 7);
  D.detach d;
  let r = Recover.run env in
  Alcotest.(check (list string)) "log clean" [] r.Recover.warnings;
  Alcotest.check Helpers.value_testable "acknowledged update survives"
    (V.VInt 7) (a r.Recover.cat)

(* An MVCC commit with nothing to write logs nothing: 100 empty commits on a
   durable catalog leave the WAL as it was and replay as no transaction,
   while a commit that writes still replays as one. *)
let test_empty_commits_log_nothing () =
  let env = F.memory () in
  let cat = Catalog.create () in
  let rel = Catalog.add cat one_int (Layout.row one_int) in
  ignore (Relation.append rel [| V.VInt 1 |]);
  let d = D.attach env cat in
  let wal_length () = F.durable_size env Wal.store_name in
  let before = wal_length () in
  let mgr = Txn.Mvcc.create cat in
  for _ = 1 to 100 do
    ignore (Txn.Mvcc.commit (Txn.Mvcc.begin_ mgr))
  done;
  Alcotest.(check int) "wal length unchanged" before (wal_length ());
  D.detach d;
  let r, d = D.recover env in
  Alcotest.(check int) "empty commits replay nothing" 0 r.Recover.replayed;
  Txn.Mvcc.run (Txn.Mvcc.create (D.catalog d)) (fun txn ->
      Txn.Mvcc.update txn "t" 0 0 (V.VInt 2));
  D.detach d;
  let r = Recover.run env in
  Alcotest.(check int) "a commit that writes replays" 1 r.Recover.replayed;
  Alcotest.check Helpers.value_testable "its write survives" (V.VInt 2)
    (Relation.get (Catalog.find r.Recover.cat "t") 0 0)

(* ------------------------------------------------------------------ *)

(* A WAL path in a directory that does not exist is a user error, not a
   bare [Sys_error]: the binaries turn it into one line and exit code 1. *)
let test_missing_directory () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mrdb-no-such-dir" in
  if Sys.file_exists dir then Alcotest.fail (dir ^ " exists");
  let cat = Catalog.create () in
  ignore (Catalog.add cat schema (Layout.row schema));
  match D.attach (F.in_dir dir) cat with
  | _ -> Alcotest.fail "attach to a missing directory succeeded"
  | exception Mrdb_util.Errors.Io_error msg ->
      Alcotest.(check bool)
        "the message names the file" true
        (String.length msg > String.length dir
        && String.sub msg 0 (String.length dir) = dir);
      Alcotest.(check (option int))
        "a user error" (Some 1)
        (Mrdb_util.Errors.exit_code_of (Mrdb_util.Errors.Io_error msg))

let suite =
  [
    Alcotest.test_case "exhaustive crash-point matrix" `Slow test_crash_matrix;
    Alcotest.test_case "corrupt wal record skipped with warning" `Quick
      test_corrupt_wal_record;
    Alcotest.test_case "corrupt snapshot tolerated" `Quick
      test_corrupt_snapshot;
    Alcotest.test_case "recovery from nothing" `Quick test_missing_everything;
    Alcotest.test_case "crash points inside advisor reorganization" `Slow
      test_advisor_repartition_crash_points;
    Alcotest.test_case "seeded crash soak" `Quick test_seeded_soak;
    Alcotest.test_case "durability leaves counters untouched" `Quick
      test_counters_unchanged;
    QCheck_alcotest.to_alcotest qcheck_wal_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_torn_prefix;
    QCheck_alcotest.to_alcotest qcheck_state_matches_reference;
    Alcotest.test_case "snapshot bytes pinned" `Quick
      test_pinned_snapshot_bytes;
    Alcotest.test_case "wal bytes pinned" `Quick test_pinned_wal_bytes;
    Alcotest.test_case "crc32 slicing-by-8 matches bitwise" `Quick test_crc32;
    Alcotest.test_case "snapshot crash points pinned" `Quick
      test_snapshot_crash_points;
    Alcotest.test_case "snapshot index on unknown attribute is invalid" `Quick
      test_snapshot_unknown_index_attr;
    Alcotest.test_case "wal record with unknown encoding skipped" `Quick
      test_wal_unknown_encoding;
    Alcotest.test_case "every writer is logged" `Quick test_every_writer_logged;
    Alcotest.test_case "wal logs values as given" `Quick
      test_wal_logs_values_as_given;
    Alcotest.test_case "commit after recovering a torn log survives" `Quick
      test_commit_after_torn_recovery;
    Alcotest.test_case "empty commits log nothing" `Quick
      test_empty_commits_log_nothing;
    Alcotest.test_case "attach to a missing directory raises Io_error" `Quick
      test_missing_directory;
  ]
