(* Sharded execution and 2PC durability.

   Four pillars:

   - answer identity: every distributed plan shape (gather, partial
     aggregation, shuffle/broadcast join, coordinator sort+limit, DML,
     pull-all fallback) returns the same answer as a single-node run of the
     same plan, across engines and shard counts;
   - codec round trips: QCheck over the exchange / 2PC message vocabulary,
     including rows with hostile strings and operation payloads;
   - the 2PC crash matrix: a scripted multi-transaction distributed
     workload is crashed at EVERY fault-injection point of every node env
     and the coordinator env, times torn-write fractions; recovery must
     never lose a fully-committed transaction and must never commit a
     transaction on one shard while aborting it on another;
   - the error paths: [Shard_unavailable] before any durable write,
     [Txn_indoubt] when the decision log is unreachable, and their wire
     tags / process exit codes. *)

module V = Storage.Value
module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema
module Expr = Relalg.Expr
module Plan = Relalg.Plan
module Aggregate = Relalg.Aggregate
module Engine = Engines.Engine
module Runtime = Engines.Runtime
module F = Durability.Faultio
module Wal = Durability.Wal
module Snapshot = Durability.Snapshot
module Cluster = Shard.Cluster
module Exec = Shard.Exec
module Exchange = Shard.Exchange
module Twopc = Shard.Twopc
module Recovery = Shard.Recovery
module Errors = Mrdb_util.Errors

let shard_counts = [ 2; 3; 5 ]

let physical cat plan = Relalg.Planner.plan cat plan

(* ------------------------------------------------------------------ *)
(* Answer identity vs single-node                                     *)
(* ------------------------------------------------------------------ *)

(* (name, plan builder, order_preserved): whether the distributed run must
   reproduce the single-node row ORDER, not just the multiset.  Gathers
   concatenate in shard order (= global row order) and the partial-
   aggregation merge keeps first-occurrence group order, so those are
   exact; shuffled joins interleave per-bucket streams, so they compare
   sorted. *)
let identity_cases =
  [
    ( "gather scan",
      (fun _ -> Plan.Scan "t"),
      true );
    ( "gather select+project",
      (fun _ ->
        Plan.Project
          ( Plan.Select
              (Plan.Scan "t", Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (V.VInt 3))),
            [ (Expr.Col 0, "id"); (Expr.Col 2, "amount") ] )),
      true );
    ( "partial aggregation",
      (fun _ ->
        Plan.Group_by
          {
            child = Plan.Scan "t";
            keys = [ (Expr.Col 1, "grp") ];
            aggs =
              [
                Aggregate.(make Sum ~expr:(Expr.Col 2) "s");
                Aggregate.(make Count_star "n");
                Aggregate.(make Min ~expr:(Expr.Col 0) "lo");
                Aggregate.(make Max ~expr:(Expr.Col 0) "hi");
              ];
          }),
      true );
    ( "global aggregate, no keys",
      (fun _ ->
        Plan.Group_by
          {
            child = Plan.Scan "t";
            keys = [];
            aggs = [ Aggregate.(make Sum ~expr:(Expr.Col 2) "s") ];
          }),
      true );
    ( "coordinator sort + limit",
      (fun _ ->
        Plan.Limit
          ( Plan.Sort
              {
                child = Plan.Scan "t";
                keys = [ (2, Plan.Desc); (0, Plan.Asc) ];
              },
            17 )),
      true );
  ]

let check_result ~ordered name (single : Runtime.result)
    (sharded : Runtime.result) =
  Alcotest.(check (array string))
    (name ^ ": columns") single.Runtime.columns sharded.Runtime.columns;
  let norm r = if ordered then r.Runtime.rows else List.sort compare r.Runtime.rows in
  Helpers.check_rows (name ^ ": rows") (norm single) (norm sharded)

let test_identity_single_table engine () =
  let cat = Helpers.small_catalog ~n:200 () in
  List.iter
    (fun shards ->
      let cl = Cluster.create ~shards cat in
      Fun.protect
        ~finally:(fun () -> Cluster.close cl)
        (fun () ->
          List.iter
            (fun (name, mk, ordered) ->
              let plan = physical cat (mk ()) in
              let single = Engine.run engine cat plan ~params:[||] in
              let sharded = Exec.run ~engine cl plan in
              check_result ~ordered
                (Printf.sprintf "%s (x%d)" name shards)
                single sharded)
            identity_cases))
    shard_counts

let test_identity_join engine () =
  let cat = Helpers.join_catalog () in
  let join =
    Plan.Join
      {
        left = Plan.Scan "cust";
        right =
          Plan.Select
            (Plan.Scan "ord", Expr.Cmp (Expr.Lt, Expr.Col 2, Expr.Const (V.VInt 50)));
        left_keys = [ 0 ];
        right_keys = [ 1 ];
      }
  in
  let plan = physical cat join in
  let single = Engine.run engine cat plan ~params:[||] in
  List.iter
    (fun shards ->
      let cl = Cluster.create ~shards cat in
      Fun.protect
        ~finally:(fun () -> Cluster.close cl)
        (fun () ->
          let sharded = Exec.run ~engine cl plan in
          check_result ~ordered:false
            (Printf.sprintf "join (x%d)" shards)
            single sharded))
    shard_counts

(* an indexed point lookup: per-shard indexes must serve the scatter *)
let test_identity_indexed () =
  let cat = Helpers.small_catalog ~n:300 () in
  Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let plan =
    physical cat
      (Plan.Select
         (Plan.Scan "t", Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (V.VInt 123))))
  in
  let single = Engine.run Engine.Jit cat plan ~params:[||] in
  let cl = Cluster.create ~shards:4 cat in
  Fun.protect
    ~finally:(fun () -> Cluster.close cl)
    (fun () ->
      check_result ~ordered:true "indexed lookup (x4)" single
        (Exec.run cl plan))

let dump cat table =
  let rel = Catalog.find cat table in
  List.init (Relation.nrows rel) (Relation.get_tuple rel)

(* DML: run the same update/insert against a single-node catalog and a
   cluster scattered from an identical copy; results and final table
   contents must agree (table_rows unions shard slices in global order). *)
let test_identity_dml engine () =
  List.iter
    (fun shards ->
      let cat1 = Helpers.small_catalog ~n:120 () in
      let cat2 = Helpers.small_catalog ~n:120 () in
      let cl = Cluster.create ~durable:true ~shards cat2 in
      Fun.protect
        ~finally:(fun () -> Cluster.close cl)
        (fun () ->
          let update =
            Plan.Update
              {
                table = "t";
                pred =
                  Some (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (V.VInt 2)));
                assignments =
                  [ (2, Expr.Arith (Expr.Add, Expr.Col 2, Expr.Const (V.VInt 1000))) ];
              }
          in
          let p = physical cat1 update in
          let r1 = Engine.run engine cat1 p ~params:[||] in
          let r2 = Exec.run ~engine cl p in
          check_result ~ordered:true
            (Printf.sprintf "update result (x%d)" shards)
            r1 r2;
          let insert =
            Plan.Insert
              {
                table = "t";
                values =
                  [
                    Expr.Const (V.VInt 9999); Expr.Const (V.VInt 1);
                    Expr.Const (V.VInt 7); Expr.Const (V.VStr "fresh");
                    Expr.Const (V.VFloat 0.5);
                  ];
              }
          in
          let p = physical cat1 insert in
          let r1 = Engine.run engine cat1 p ~params:[||] in
          let r2 = Exec.run ~engine cl p in
          check_result ~ordered:true
            (Printf.sprintf "insert tid (x%d)" shards)
            r1 r2;
          Helpers.check_rows
            (Printf.sprintf "final contents (x%d)" shards)
            (List.sort compare (dump cat1 "t"))
            (List.sort compare (Cluster.table_rows cl "t"))))
    shard_counts

(* ------------------------------------------------------------------ *)
(* shard_range partitions exactly                                     *)
(* ------------------------------------------------------------------ *)

let test_shard_range () =
  List.iter
    (fun shards ->
      List.iter
        (fun n ->
          let next = ref 0 in
          for shard = 0 to shards - 1 do
            let lo, len = Cluster.shard_range ~shards ~shard n in
            Alcotest.(check int)
              (Printf.sprintf "contiguous n=%d x%d shard %d" n shards shard)
              !next lo;
            Alcotest.(check bool) "non-negative length" true (len >= 0);
            next := lo + len
          done;
          Alcotest.(check int)
            (Printf.sprintf "covers n=%d x%d" n shards)
            n !next)
        [ 0; 1; 7; 100; 101 ])
    [ 1; 2; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* Cost model: measured network traffic honors the estimates          *)
(* ------------------------------------------------------------------ *)

let test_partial_agg_reduces_bytes () =
  let cat = Helpers.small_catalog ~n:400 () in
  let cl = Cluster.create ~shards:4 cat in
  Fun.protect
    ~finally:(fun () -> Cluster.close cl)
    (fun () ->
      let child = physical cat (Plan.Scan "t") in
      let agg =
        physical cat
          (Plan.Group_by
             {
               child = Plan.Scan "t";
               keys = [ (Expr.Col 1, "grp") ];
               aggs = [ Aggregate.(make Sum ~expr:(Expr.Col 2) "s") ];
             })
      in
      let est = Shard.Cost.agg_costing cl ~child ~gb:agg in
      Alcotest.(check bool) "estimated partial < naive row shuffle" true
        (est.Shard.Cost.partial_bytes < est.Shard.Cost.naive_bytes);
      let _, m = Exec.run_measured cl agg in
      Alcotest.(check bool) "measured bytes below naive estimate" true
        (m.Exec.net_bytes < est.Shard.Cost.naive_bytes);
      Alcotest.(check bool) "some messages flowed" true (m.Exec.net_messages > 0);
      Alcotest.(check bool) "interconnect cycles accounted" true
        (m.Exec.net_cycles > 0))

let test_join_choice_is_cheapest () =
  let cat = Helpers.join_catalog ~n_orders:600 ~n_customers:30 () in
  let cl = Cluster.create ~shards:4 cat in
  Fun.protect
    ~finally:(fun () -> Cluster.close cl)
    (fun () ->
      let build = physical cat (Plan.Scan "cust") in
      let probe = physical cat (Plan.Scan "ord") in
      let c = Shard.Cost.join_costing cl ~build ~probe in
      (* tiny build side vs a fat probe: broadcast must win, and the chosen
         method must price at min of the two *)
      Alcotest.(check bool) "broadcast chosen for small build" true
        (c.Shard.Cost.chosen = Shard.Cost.Broadcast);
      let chosen_cycles =
        match c.Shard.Cost.chosen with
        | Shard.Cost.Broadcast -> c.Shard.Cost.broadcast_cycles
        | Shard.Cost.Shuffle -> c.Shard.Cost.shuffle_cycles
      in
      Alcotest.(check bool) "chosen is the cheaper method" true
        (chosen_cycles
         <= min c.Shard.Cost.broadcast_cycles c.Shard.Cost.shuffle_cycles);
      let describe = Exec.describe cl (physical cat
        (Plan.Join
           { left = Plan.Scan "cust"; right = Plan.Scan "ord";
             left_keys = [ 0 ]; right_keys = [ 1 ] })) in
      Alcotest.(check bool) "describe names the strategy" true
        (String.length describe > 0))

(* ------------------------------------------------------------------ *)
(* QCheck: exchange / 2PC codec round trips                           *)
(* ------------------------------------------------------------------ *)

let gen_value : V.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> V.VInt i) (int_range (-1_000_000) 1_000_000);
      map (fun f -> V.VFloat f) (float_bound_inclusive 1e6);
      map (fun b -> V.VBool b) bool;
      map (fun d -> V.VDate d) (int_range 0 40_000);
      map (fun s -> V.VStr s) (string_size ~gen:printable (int_range 0 12));
      (* the characters the percent-escaping exists for *)
      map (fun s -> V.VStr s)
        (oneofl [ "%"; "|"; " "; "%7C"; "a|b c%"; "\n"; ""; "~" ]);
      return V.Null;
    ]

let gen_row : V.t array QCheck.Gen.t =
  let open QCheck.Gen in
  let* arity = int_range 0 4 in
  flatten_a (Array.init arity (fun _ -> gen_value))

let gen_table = QCheck.Gen.oneofl [ "t"; "a b"; "x%y"; "p|q" ]

let gen_op : Wal.op QCheck.Gen.t =
  let open QCheck.Gen in
  let* table = gen_table in
  let* row = gen_row in
  let* tid = int_range 0 1000 in
  let* value = gen_value in
  oneofl
    [
      Storage.Write.Append { table; values = row };
      Storage.Write.Update { table; tid; attr = 0; value };
      Storage.Write.Load { table; rows = [| row; row |] };
    ]

let gen_msg : Exchange.msg QCheck.Gen.t =
  let open QCheck.Gen in
  let* txid = int_range 0 100_000 in
  let* shard = int_range 0 64 in
  let* commit = bool in
  let* nrows = int_range 0 5 in
  let* rows = flatten_l (List.init nrows (fun _ -> gen_row)) in
  let* nops = int_range 0 4 in
  let* ops = flatten_l (List.init nops (fun _ -> gen_op)) in
  oneofl
    [
      Exchange.Rows rows;
      Exchange.Prepare { txid; shard; ops };
      Exchange.Vote { txid; shard; commit };
      Exchange.Decide { txid; commit };
      Exchange.Ack { txid; shard };
    ]

let qcheck_exchange_roundtrip =
  QCheck.Test.make ~count:500 ~name:"exchange message round-trips"
    (QCheck.make gen_msg)
    (fun msg -> Exchange.parse (Exchange.encode msg) = msg)

let qcheck_exchange_one_line =
  QCheck.Test.make ~count:500 ~name:"encoded messages are newline-free"
    (QCheck.make gen_msg)
    (fun msg -> not (String.contains (Exchange.encode msg) '\n'))

(* Hostile lines: an encoded message with 1-3 edits, each a truncation, a
   byte flipped to any byte, or a space-separated field dropped or added
   (tokens that are fields elsewhere, bad numbers and escapes, or random
   bytes).  [parse] must answer or raise [Bad_request], nothing else. *)
let gen_damaged_line =
  let open QCheck.Gen in
  let token =
    oneof
      [
        oneofl
          [
            "commit"; "abort"; "-1"; "99999999999999999999"; "0x1f"; "~";
            "null"; "i:1"; "i:x"; "s:%"; "%"; "%0"; "%zz"; "f:nan"; "b:maybe";
            "ROWS"; "PREPARE"; "";
          ];
        string_size ~gen:char (int_range 0 12);
      ]
  in
  let edit line =
    let n = String.length line in
    let fields = String.split_on_char ' ' line in
    let nf = List.length fields in
    let keep p = List.filteri (fun j _ -> p j) fields in
    frequency
      [
        (2, map (fun p -> String.sub line 0 (p mod (n + 1))) nat);
        ( 3,
          map2
            (fun p c ->
              if n = 0 then line
              else String.mapi (fun i x -> if i = p mod n then c else x) line)
            nat char );
        (2, map (fun i -> String.concat " " (keep (fun j -> j <> i mod nf))) nat);
        ( 2,
          map2
            (fun i f ->
              let i = i mod (nf + 1) in
              String.concat " " (keep (fun j -> j < i) @ (f :: keep (fun j -> j >= i))))
            nat token );
      ]
  in
  let* line = map Exchange.encode gen_msg in
  let* k = int_range 1 3 in
  let rec damage k line =
    if k = 0 then return line else edit line >>= damage (k - 1)
  in
  damage k line

let qcheck_exchange_hostile =
  QCheck.Test.make ~count:2000
    ~name:"exchange parse of a damaged line: a message or Bad_request"
    (QCheck.make ~print:String.escaped gen_damaged_line)
    (fun line ->
      match Exchange.parse line with
      | _ -> true
      | exception Errors.Bad_request _ -> true)

(* ------------------------------------------------------------------ *)
(* The 2PC crash matrix                                               *)
(* ------------------------------------------------------------------ *)

let nshards = 3

let shard_schema =
  Schema.make "t" [ ("id", V.Int); ("grp", V.Int); ("amount", V.Int) ]

let source_catalog () =
  let cat = Catalog.create () in
  let rel = Catalog.add cat shard_schema (Layout.row shard_schema) in
  Relation.load rel ~n:9 (fun ~row ->
      [| V.VInt row; V.VInt (row mod 3); V.VInt (row * 10) |]);
  cat

let append id grp amount =
  Storage.Write.Append
    { table = "t"; values = [| V.VInt id; V.VInt grp; V.VInt amount |] }

let set_amount tid v =
  Storage.Write.Update { table = "t"; tid; attr = 2; value = V.VInt v }

(* The scripted distributed workload.  Transaction markers are values that
   cannot occur in the scattered data (ids >= 100, amounts >= 700), so the
   recovered catalogs can be probed for exactly which transactions
   survived.  [txn3] is vetoed by shard 2 and must never leave a trace. *)
let txns =
  [
    ("txn1", [ (0, (0, 100)); (1, (0, 101)) ], true);
    ("txn2", [ (1, (2, 777)); (2, (2, 888)) ], true);
    ("txn3", [ (0, (0, 102)); (2, (2, 999)) ], false);
    ("txn4", [ (0, (0, 103)); (1, (0, 104)); (2, (0, 105)) ], true);
  ]

(* Run the script against the given envs, recording after every step the
   per-env crash-point counters (the floor computation of the matrix). *)
let run_2pc_script envs coord_env =
  let marks = ref [] in
  let mark step counts =
    marks := (step, counts ()) :: !marks
  in
  let counts () = (Array.map F.points envs, F.points coord_env) in
  let cl =
    Cluster.create ~durable:true ~envs ~coord_env ~shards:nshards
      (source_catalog ())
  in
  Fun.protect
    ~finally:(fun () -> Cluster.close cl)
    (fun () ->
      mark "scatter" counts;
      ignore (Twopc.execute cl [ (0, [ append 100 0 600 ]); (1, [ append 101 1 601 ]) ]);
      mark "txn1" counts;
      ignore (Twopc.execute cl [ (1, [ set_amount 0 777 ]); (2, [ set_amount 1 888 ]) ]);
      mark "txn2" counts;
      let aborted =
        Twopc.execute cl
          ~vote:(fun s -> s <> 2)
          [ (0, [ append 102 2 602 ]); (2, [ set_amount 0 999 ]) ]
      in
      assert (not aborted.Twopc.committed);
      mark "txn3" counts;
      ignore
        (Twopc.execute cl
           [ (0, [ append 103 0 603 ]); (1, [ append 104 1 604 ]);
             (2, [ append 105 2 605 ]) ]);
      mark "txn4" counts);
  List.rev !marks

let has_marker cat (attr, v) =
  if not (List.mem "t" (Catalog.names cat)) then false
  else begin
    let rel = Catalog.find cat "t" in
    List.exists
      (fun tid -> V.equal (Relation.get rel tid attr) (V.VInt v))
      (List.init (Relation.nrows rel) Fun.id)
  end

(* Recover all envs and check the two 2PC invariants against the floor of
   fully-durable transactions. *)
let check_recovery ~ctx ~durable_steps envs coord_env =
  Array.iter (fun e -> F.set_plan e F.Reliable) envs;
  F.set_plan coord_env F.Reliable;
  let res = Recovery.recover_cluster envs coord_env in
  let cats = Array.map (fun (r : Durability.Recover.result) -> r.Durability.Recover.cat) res.Recovery.results in
  (* every settlement agrees with the durable decision log (presumed abort) *)
  let decisions = Recovery.decisions coord_env in
  List.iter
    (fun ((_, s) : int * Recovery.settled) ->
      match List.assoc_opt s.Recovery.txid decisions with
      | Some c ->
          Alcotest.(check bool)
            (ctx ^ ": settlement follows decision log") c s.Recovery.committed
      | None ->
          Alcotest.(check bool)
            (ctx ^ ": undecided settles as abort") false s.Recovery.committed)
    res.Recovery.settled;
  List.iter
    (fun (name, markers, committable) ->
      let present =
        List.map (fun (shard, m) -> has_marker cats.(shard) m) markers
      in
      if not committable then
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: vetoed %s never commits" ctx name)
              false p)
          present
      else begin
        (* atomic across shards: all or none *)
        let all = List.for_all Fun.id present
        and none = List.for_all not present in
        if not (all || none) then
          Alcotest.failf "%s: %s committed on a strict subset of its shards"
            ctx name;
        if List.mem name durable_steps && not all then
          Alcotest.failf "%s: fully-durable %s lost by recovery" ctx name
      end)
    txns

let fresh_envs () = (Array.init nshards (fun _ -> F.memory ()), F.memory ())

let test_2pc_crash_matrix () =
  (* dry run: count every env's crash points and prove the named 2PC
     points are among them *)
  let envs, coord_env = fresh_envs () in
  let marks = run_2pc_script envs coord_env in
  let node_totals = Array.map F.points envs in
  let coord_total = F.points coord_env in
  let named e = List.map fst (F.named_points e) in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " passed on node 1") true
        (List.mem p (named envs.(1))))
    [ "2pc.part.pre_prepare"; "2pc.part.prepared"; "2pc.part.pre_resolve" ];
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " passed on coordinator") true
        (List.mem p (named coord_env)))
    [ "2pc.coord.pre_decide"; "2pc.coord.decided" ];
  (* matrix: every positional point of every env (the named points are a
     subset of these boundaries) x torn fractions *)
  let checked = ref 0 in
  let run_crash ~ctx ~plan_env_idx ~point ~torn =
    let envs, coord_env = fresh_envs () in
    let target = match plan_env_idx with
      | None -> coord_env
      | Some i -> envs.(i)
    in
    F.set_plan target (F.Crash_at { point; torn });
    (match run_2pc_script envs coord_env with
    | _ -> Alcotest.failf "%s: expected a crash" ctx
    | exception F.Crash _ -> ());
    (* steps all of whose crash points in the crashed env happened strictly
       before the crash were fully durable before the process died *)
    let durable_steps =
      List.filter_map
        (fun (step, (node_counts, coord_count)) ->
          let c = match plan_env_idx with
            | None -> coord_count
            | Some i -> node_counts.(i)
          in
          if c < point then Some step else None)
        marks
    in
    check_recovery ~ctx ~durable_steps envs coord_env;
    incr checked
  in
  List.iter
    (fun torn ->
      for i = 0 to nshards - 1 do
        for point = 1 to node_totals.(i) do
          run_crash
            ~ctx:(Printf.sprintf "node %d point %d torn %.1f" i point torn)
            ~plan_env_idx:(Some i) ~point ~torn
        done
      done;
      for point = 1 to coord_total do
        run_crash
          ~ctx:(Printf.sprintf "coord point %d torn %.1f" point torn)
          ~plan_env_idx:None ~point ~torn
      done)
    [ 0.0; 0.5; 1.0 ];
  Alcotest.(check bool) "matrix covered" true
    (!checked >= 3 * (coord_total + Array.fold_left ( + ) 0 node_totals))

(* the two interesting named boundaries, pinned explicitly: a crash right
   BEFORE the decision is durable aborts everywhere; right AFTER, the
   in-doubt participants must all commit on recovery *)
let test_2pc_decision_boundary () =
  List.iter
    (fun (name, expect_commit) ->
      let envs, coord_env = fresh_envs () in
      F.set_plan coord_env (F.At_point { name; nth = 1; torn = 0.0 });
      (match run_2pc_script envs coord_env with
      | _ -> Alcotest.failf "%s: expected a crash" name
      | exception F.Crash _ -> ());
      Array.iter (fun e -> F.set_plan e F.Reliable) envs;
      F.set_plan coord_env F.Reliable;
      let res = Recovery.recover_cluster envs coord_env in
      let cats = Array.map (fun (r : Durability.Recover.result) -> r.Durability.Recover.cat) res.Recovery.results in
      (* txn1's markers: shard 0 id 100, shard 1 id 101 *)
      Alcotest.(check bool)
        (name ^ ": txn1 on shard 0")
        expect_commit
        (has_marker cats.(0) (0, 100));
      Alcotest.(check bool)
        (name ^ ": txn1 on shard 1")
        expect_commit
        (has_marker cats.(1) (0, 101)))
    [ ("2pc.coord.pre_decide", false); ("2pc.coord.decided", true) ]

(* ------------------------------------------------------------------ *)
(* Error paths                                                        *)
(* ------------------------------------------------------------------ *)

let test_shard_unavailable () =
  let cat = Helpers.small_catalog ~n:60 () in
  let cl = Cluster.create ~durable:true ~shards:3 cat in
  Fun.protect
    ~finally:(fun () -> Cluster.close cl)
    (fun () ->
      let sizes () =
        Array.map
          (fun (n : Cluster.node) -> F.durable_size n.Cluster.env Wal.store_name)
          (Cluster.nodes cl)
      in
      Cluster.set_down cl 1 true;
      let before = sizes () in
      let query = physical cat (Plan.Scan "t") in
      (match Exec.run cl query with
      | _ -> Alcotest.fail "query over a down shard must raise"
      | exception Errors.Shard_unavailable _ -> ());
      let dml =
        [ (0, [ append 100 0 0 ]); (1, [ append 101 1 1 ]) ]
      in
      (match Twopc.execute cl dml with
      | _ -> Alcotest.fail "2PC with a down participant must raise"
      | exception Errors.Shard_unavailable _ -> ());
      (* checked before phase 1: nothing became durable anywhere *)
      Alcotest.(check (array int)) "no durable write happened" before (sizes ());
      Cluster.set_down cl 1 false;
      let r = Exec.run cl query in
      Alcotest.(check int) "recovered shard serves again" 60
        (List.length r.Runtime.rows))

(* [update t set a = b] cannot apply at the NULL of row 2.  Its write set is
   refused before PREPARE, so nothing reaches the WAL or the decision log,
   and the next update's acknowledged commit survives recovery. *)
let test_unappliable_write_set () =
  let envs = [| F.memory () |] and coord_env = F.memory () in
  let cat = Helpers.nullable_catalog () in
  let cl = Cluster.create ~durable:true ~envs ~coord_env ~shards:1 cat in
  let run sql = ignore (Exec.run cl (physical cat (Relalg.Sql.parse cat sql))) in
  (match run "update t set a = b" with
  | () -> Alcotest.fail "a write set that cannot apply must raise"
  | exception Errors.Bad_request _ -> ());
  run "update t set a = 99 where a = 4";
  let live = Cluster.digests cl in
  Cluster.close cl;
  let res = Recovery.recover_cluster envs coord_env in
  let r = res.Recovery.results.(0) in
  Alcotest.(check (list string))
    "no replay warnings" [] r.Durability.Recover.warnings;
  Alcotest.(check (list Helpers.value_testable))
    "a after recovery"
    [ V.VInt 1; V.VInt 2; V.VInt 3; V.VInt 99 ]
    (Helpers.column r.Durability.Recover.cat "t" 0);
  Alcotest.(check (list string)) "live digests = recovered digests" live
    [ Snapshot.digest r.Durability.Recover.cat ]

let test_txn_indoubt () =
  let envs, coord_env = fresh_envs () in
  F.set_plan coord_env
    (F.At_point { name = "2pc.coord.pre_decide"; nth = 1; torn = 0.0 });
  (match run_2pc_script envs coord_env with
  | _ -> Alcotest.fail "expected a crash"
  | exception F.Crash _ -> ());
  F.set_plan coord_env F.Reliable;
  Array.iter (fun e -> F.set_plan e F.Reliable) envs;
  Alcotest.(check bool) "participant 0 is in doubt" true
    (Recovery.in_doubt_txids envs.(0) <> []);
  (* coordinator unreachable: the shard must refuse to guess *)
  (match Recovery.recover_node envs.(0) with
  | _ -> Alcotest.fail "recovery without a decision log must raise"
  | exception Errors.Txn_indoubt _ -> ());
  (* with the (empty-for-this-txid) decision log: presumed abort *)
  let _, settled = Recovery.recover_node ~decisions:[] envs.(0) in
  List.iter
    (fun (s : Recovery.settled) ->
      Alcotest.(check bool) "presumed abort" false s.Recovery.committed)
    settled

let test_error_codes () =
  Alcotest.(check (option int)) "Shard_unavailable exit code" (Some 6)
    (Errors.exit_code_of (Errors.Shard_unavailable "s0"));
  Alcotest.(check (option int)) "Txn_indoubt exit code" (Some 7)
    (Errors.exit_code_of (Errors.Txn_indoubt "t9"));
  List.iter
    (fun e ->
      match Errors.wire_tag_of e with
      | None -> Alcotest.fail "shard errors must have wire tags"
      | Some tag -> (
          match Errors.of_wire_tag tag "msg" with
          | Some e' ->
              Alcotest.(check bool)
                (tag ^ " round-trips to the same constructor")
                true
                (match (e, e') with
                | Errors.Shard_unavailable _, Errors.Shard_unavailable _
                | Errors.Txn_indoubt _, Errors.Txn_indoubt _ ->
                    true
                | _ -> false)
          | None -> Alcotest.failf "tag %s does not parse back" tag))
    [ Errors.Shard_unavailable "s"; Errors.Txn_indoubt "t" ]

(* ------------------------------------------------------------------ *)

let suite =
  Alcotest.test_case "shard_range partitions exactly" `Quick test_shard_range
  :: Alcotest.test_case "indexed lookup identical" `Quick
       test_identity_indexed
  :: Alcotest.test_case "partial aggregation reduces network bytes" `Quick
       test_partial_agg_reduces_bytes
  :: Alcotest.test_case "join method choice is the cheapest" `Quick
       test_join_choice_is_cheapest
  :: Alcotest.test_case "2PC crash matrix (exhaustive)" `Slow
       test_2pc_crash_matrix
  :: Alcotest.test_case "decision-write boundary semantics" `Quick
       test_2pc_decision_boundary
  :: Alcotest.test_case "down shard raises before any durable write" `Quick
       test_shard_unavailable
  :: Alcotest.test_case "unappliable write set refused before prepare" `Quick
       test_unappliable_write_set
  :: Alcotest.test_case "in-doubt without coordinator raises" `Quick
       test_txn_indoubt
  :: Alcotest.test_case "error exit codes and wire tags" `Quick
       test_error_codes
  :: QCheck_alcotest.to_alcotest qcheck_exchange_roundtrip
  :: QCheck_alcotest.to_alcotest qcheck_exchange_one_line
  :: QCheck_alcotest.to_alcotest qcheck_exchange_hostile
  :: Helpers.across_engines "single-table plans identical" test_identity_single_table
  @ Helpers.across_engines "distributed join identical" test_identity_join
  @ Helpers.across_engines "DML via 2PC identical" test_identity_dml
