(* The compiled engine: C-emitted pipelines must be indistinguishable
   from the interpreted engines — same rows in the same order, NULL and
   overflow semantics included — and must fall back to Jit whenever the
   plan (or the machine) is outside its reach. *)

module V = Storage.Value
module Runtime = Engines.Runtime
module Engine = Engines.Engine
module Compiled = Engines.Compiled
module Metrics = Obs.Metrics

let check_result name (a : Runtime.result) (b : Runtime.result) =
  Alcotest.(check (array string)) (name ^ " columns") a.columns b.columns;
  Helpers.check_rows (name ^ " rows") a.rows b.rows

let counter_value name = Metrics.counter_value (Metrics.counter name)

(* With the compiler forced unavailable, run [f]; restores the env. *)
let without_cc f =
  Unix.putenv "MRDB_NO_CC" "1";
  Compiled.reset_cache ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MRDB_NO_CC" "";
      Compiled.reset_cache ())
    f

(* A nullable mixed-type table exercising every compiled value type. *)
let mixed_catalog ?(n = 321) () =
  let cat = Storage.Catalog.create () in
  let schema =
    Storage.Schema.make_nullable "m"
      [
        ("id", V.Int, false);
        ("grp", V.Int, false);
        ("amount", V.Int, true);
        ("score", V.Float, true);
        ("flag", V.Bool, false);
        ("d", V.Date, false);
      ]
  in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  Storage.Relation.load rel ~n (fun ~row ->
      [|
        V.VInt row;
        V.VInt (row mod 5);
        (if row mod 11 = 0 then V.Null else V.VInt ((row * 7 mod 113) - 50));
        (if row mod 13 = 0 then V.Null
         else if row mod 17 = 0 then V.VFloat (0.0 /. 0.0)
         else if row mod 19 = 0 then V.VFloat (-0.0)
         else V.VFloat (float_of_int (row mod 29) /. 8.0));
        V.VBool (row mod 3 = 0);
        V.VDate (738000 + (row mod 31));
      |]);
  cat

let parity_queries =
  [
    ("select id, grp, amount from m where id < 30", [||]);
    ("select id + amount s, amount * grp p from m where grp = 2", [||]);
    ("select count(*) c, count(amount) ca, sum(amount) s, avg(amount) a, \
      min(amount) mn, max(amount) mx from m", [||]);
    ("select grp, count(*) c, sum(score) s, min(score) mn, max(score) mx \
      from m group by grp", [||]);
    ("select score, count(*) c from m group by score", [||]);
    ("select flag, d, count(*) c from m group by flag, d limit 23", [||]);
    ("select id from m where score > $1 limit 9", [| V.VInt 1 |]);
    ("select count(*) c from m where amount is null or score is null", [||]);
    ("select grp, avg(d) a from m where not (flag) group by grp", [||]);
    ("select id, amount % 7 r, amount / (id - id) z from m where id < 12",
     [||]);
  ]

let test_parity_vs engine () =
  let cat = mixed_catalog () in
  List.iter
    (fun (sql, params) ->
      let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
      let reference = Engine.run engine cat plan ~params in
      let compiled = Engine.run Engine.Compiled cat plan ~params in
      check_result (Printf.sprintf "[%s] %s" (Engine.name engine) sql)
        reference compiled)
    parity_queries

(* Sums that wrap OCaml's 63-bit native int must wrap the same way in C. *)
let test_overflow_wrap () =
  let cat = Storage.Catalog.create () in
  let schema = Storage.Schema.make "big" [ ("x", V.Int) ] in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  let near = (max_int / 2) - 3 in
  Storage.Relation.load rel ~n:4 (fun ~row -> [| V.VInt (near + row) |]);
  List.iter
    (fun sql ->
      let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
      let jit = Engines.Jit.run cat plan ~params:[||] in
      let compiled = Compiled.run cat plan ~params:[||] in
      check_result sql jit compiled)
    [
      "select sum(x) s from big";
      "select x + x a, x * x m from big";
      "select sum(x) s from big group by x";
    ]

(* Compressed (encoded) relations are outside the compiled subset: the
   engine must route them through the interpreted fallback and still be
   correct. *)
let test_compressed_fallback () =
  let cat = Storage.Catalog.create () in
  let schema =
    Storage.Schema.make "c" [ ("k", V.Int); ("v", V.Int) ]
  in
  let rows =
    Array.init 200 (fun i -> [| V.VInt (i mod 4); V.VInt (i mod 50) |])
  in
  let encodings = Storage.Compress.plan_rows schema rows in
  Alcotest.(check bool) "table actually encoded" true (encodings <> []);
  let layout =
    Storage.Compress.singleton_layout schema
      (Storage.Layout.row schema)
      encodings
  in
  let rel = Storage.Catalog.add cat ~encodings schema layout in
  Array.iter (fun r -> ignore (Storage.Relation.append rel r)) rows;
  let sql = "select k, count(*) c, sum(v) s from c group by k" in
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  let before = counter_value "mrdb_compiled_fallbacks_total" in
  let jit = Engines.Jit.run cat plan ~params:[||] in
  let compiled = Compiled.run cat plan ~params:[||] in
  check_result sql jit compiled;
  Alcotest.(check bool) "fallback counted" true
    (counter_value "mrdb_compiled_fallbacks_total" > before)

(* MRDB_NO_CC forces the no-compiler path: the engine must degrade to the
   interpreter transparently. *)
let test_no_cc_fallback () =
  let cat = mixed_catalog ~n:77 () in
  let sql = "select grp, count(*) c from m group by grp" in
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  without_cc (fun () ->
      Alcotest.(check bool) "cc reported unavailable" false
        (Compiled.cc_available ());
      let before = counter_value "mrdb_compiled_fallbacks_total" in
      let jit = Engines.Jit.run cat plan ~params:[||] in
      let compiled = Compiled.run cat plan ~params:[||] in
      check_result sql jit compiled;
      Alcotest.(check bool) "fallback counted" true
        (counter_value "mrdb_compiled_fallbacks_total" > before))

(* Re-running the same plan must reuse the object: at most one cc
   invocation per distinct source, and a process-cache hit never touches
   the counters again. *)
let test_cache_hit_counting () =
  if not (Compiled.cc_available ()) then ()
  else begin
    let cat = mixed_catalog ~n:50 () in
    let sql = "select count(*) c from m where id < 49" in
    let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
    Compiled.reset_cache ();
    let h0 = counter_value "mrdb_compiled_cache_hits_total" in
    let m0 = counter_value "mrdb_compiled_cache_misses_total" in
    ignore (Compiled.run cat plan ~params:[||]);
    let h1 = counter_value "mrdb_compiled_cache_hits_total" in
    let m1 = counter_value "mrdb_compiled_cache_misses_total" in
    Alcotest.(check bool) "first run consulted the cache" true
      (h1 + m1 = h0 + m0 + 1);
    ignore (Compiled.run cat plan ~params:[||]);
    Alcotest.(check int) "second run hit the process cache"
      (h1 + m1)
      (counter_value "mrdb_compiled_cache_hits_total"
      + counter_value "mrdb_compiled_cache_misses_total");
    (* dropping the process cache but keeping the objects on disk must
       count a disk hit, not a recompile *)
    Compiled.reset_cache ();
    ignore (Compiled.run cat plan ~params:[||]);
    Alcotest.(check int) "third run hit the disk cache" (h1 + 1)
      (counter_value "mrdb_compiled_cache_hits_total");
    Alcotest.(check int) "no recompile" m1
      (counter_value "mrdb_compiled_cache_misses_total")
  end

(* Morsel-parallel compiled execution goes through Compiled.prepare and
   must agree with the sequential run. *)
let test_parallel_compiled () =
  let cat = mixed_catalog ~n:500 () in
  List.iter
    (fun (sql, params) ->
      let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
      let seq = Engine.run Engine.Compiled cat plan ~params in
      let par =
        Engine.run ~domains:2 ~morsel_size:64 Engine.Compiled cat plan
          ~params
      in
      check_result ("parallel " ^ sql) seq par)
    [
      ("select id, amount from m where grp = 1", [||]);
      ("select id from m where score > 0.5 and flag", [||]);
    ]

(* Exact value identity: constructor and bits (Value.equal would let
   -0. = 0., nan = nan and VInt = VDate pass). *)
let exact (v : V.t) =
  match v with
  | V.Null -> "null"
  | V.VInt x -> Printf.sprintf "i%d" x
  | V.VFloat f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)
  | V.VBool b -> Printf.sprintf "b%b" b
  | V.VDate d -> Printf.sprintf "d%d" d
  | V.VStr s -> Printf.sprintf "s%S" s

let check_exact name (a : Runtime.result) (b : Runtime.result) =
  Alcotest.(check (array string)) (name ^ " columns") a.columns b.columns;
  Alcotest.(check (list (array string)))
    (name ^ " rows")
    (List.map (Array.map exact) a.rows)
    (List.map (Array.map exact) b.rows)

(* Run [sql] under Compiled and under each reference engine; with a
   compiler present the compiled run must also be native. *)
let check_native ?(params = [||]) ?(against = [ Engine.Jit; Engine.Bulk ]) cat
    sql =
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  let fb0 = counter_value "mrdb_compiled_fallbacks_total" in
  let compiled = Compiled.run cat plan ~params in
  if Compiled.cc_available () then
    Alcotest.(check int)
      (sql ^ " ran natively")
      fb0
      (counter_value "mrdb_compiled_fallbacks_total");
  List.iter
    (fun engine ->
      check_exact
        (Printf.sprintf "[%s] %s" (Engine.name engine) sql)
        (Engine.run engine cat plan ~params)
        compiled)
    against;
  compiled

(* All eight CH analytic queries at scale 0.01 under the layouts the IP
   optimizer picks for them (hybrid, partially decomposed), row for row. *)
let test_ch_suite () =
  let ch = Workloads.Ch.build ~scale:0.01 () in
  let cat = ch.Workloads.Ch.cat in
  let plans =
    Workloads.Workload.plans ~use_indexes:false ch.Workloads.Ch.queries
  in
  Layoutopt.Optimizer.apply cat
    (Layoutopt.Optimizer.optimize ~algorithm:Layoutopt.Optimizer.Ip cat plans);
  List.iter
    (fun (q : Workloads.Workload.query) ->
      ignore (check_native ~params:q.Workloads.Workload.params cat q.sql))
    ch.Workloads.Ch.queries

(* Two joinable tables with nullable keys, an int/date key pair, float
   sort keys with nan and -0., and varchars sharing prefixes. *)
let join_catalog () =
  let cat = Storage.Catalog.create () in
  let l =
    Storage.Schema.make_nullable "l"
      [
        ("lk", V.Int, true);
        ("lv", V.Int, false);
        ("lname", V.Varchar 6, true);
        ("lf", V.Float, true);
      ]
  in
  let r =
    Storage.Schema.make_nullable "r"
      [ ("rk", V.Int, true); ("rd", V.Date, false); ("rv", V.Int, false) ]
  in
  let names = [| ""; "a"; "ab"; "abc"; "abcdef"; "b"; "ab" |] in
  let floats = [| 0.0; -0.0; nan; 1.5; -2.0; nan; 0.0 |] in
  let lrel =
    Storage.Catalog.add cat l (Storage.Layout.of_indices l [ [ 0; 2 ]; [ 1; 3 ] ])
  in
  Storage.Relation.load lrel ~n:60 (fun ~row ->
      [|
        (if row mod 7 = 3 then V.Null else V.VInt (row mod 9));
        V.VInt row;
        (if row mod 11 = 5 then V.Null else V.VStr names.(row mod 7));
        (if row mod 13 = 4 then V.Null else V.VFloat floats.(row mod 7));
      |]);
  let rrel = Storage.Catalog.add cat r (Storage.Layout.column r) in
  Storage.Relation.load rrel ~n:25 (fun ~row ->
      [|
        (if row mod 5 = 2 then V.Null else V.VInt (row mod 8));
        V.VDate (row mod 6);
        V.VInt (100 + row);
      |]);
  cat

let test_join_null_keys () =
  let cat = join_catalog () in
  let r = check_native cat "select lv, rv, lname from l join r on lk = rk" in
  Alcotest.(check bool) "NULL keys matched each other" true
    (List.exists (fun row -> row.(0) = V.VInt 3) r.Runtime.rows)

let test_join_int_date () =
  let cat = join_catalog () in
  let r = check_native cat "select lk, rd, rv from l join r on lk = rd" in
  Alcotest.(check bool) "int keys matched date keys" true (r.Runtime.rows <> [])

let test_order_by_ties_limit () =
  let cat = join_catalog () in
  List.iter
    (fun sql -> ignore (check_native cat sql))
    [
      "select lv, lk from l order by lk limit 7";
      "select lv, lk from l order by lk desc limit 11";
      "select rk, count(*) c from r group by rk order by c desc limit 3";
      "select lv, rv from l join r on lk = rk order by rv limit 5";
    ]

let test_nan_zero_sort () =
  let cat = join_catalog () in
  List.iter
    (fun sql -> ignore (check_native cat sql))
    [
      "select lf, lv from l order by lf";
      "select lf, lv from l order by lf desc, lv desc";
      "select lf, count(*) c from l group by lf order by lf";
    ]

let test_varchar_group_keys () =
  let cat = join_catalog () in
  let r =
    check_native cat
      "select lname, count(*) c, min(lv) mn from l group by lname"
  in
  let keys = List.map (fun row -> row.(0)) r.Runtime.rows in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "group %s present" (V.to_display k))
        true (List.mem k keys))
    [ V.VStr ""; V.VStr "a"; V.VStr "ab"; V.VStr "abc"; V.VStr "abcdef"; V.Null ];
  ignore
    (check_native cat
       "select lname, max(lname) mx, min(lname) mn, count(lname) n from l \
        group by lname order by lname")

(* Seeded random join + group + sort + limit SQL over the nullable,
   partially decomposed tables above: every query native, every answer
   exact.  The differential fuzzer generates joins rarely, so this sweeps
   key type pairs (int/int, int/date, nullable), build/probe sides, varchar
   and float payloads and sort directions directly. *)
let test_random_joins () =
  let cat = join_catalog () in
  let rng = Random.State.make [| 14 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let dir () = if Random.State.bool rng then " desc" else "" in
  for _ = 1 to 30 do
    let lk, rk = pick [| ("lk", "rk"); ("lk", "rd"); ("lv", "rv"); ("lv", "rk") |] in
    let from =
      if Random.State.bool rng then Printf.sprintf "l join r on %s = %s" lk rk
      else Printf.sprintf "r join l on %s = %s" rk lk
    in
    let where =
      pick [| ""; " where lv > 20"; " where rv < 110 or lf > 0.5"; " where lname is null" |]
    in
    let select, group, cols =
      pick
        [|
          ("lv, rv, lname, lf", "", [ "lv"; "rv"; "lname"; "lf" ]);
          ("lname, count(*) c, sum(rv) s, max(lf) m", " group by lname",
           [ "lname"; "c"; "s"; "m" ]);
          ("rd, min(lname) mn, avg(lv) a", " group by rd", [ "rd"; "mn"; "a" ]);
        |]
    in
    let order =
      if Random.State.bool rng then ""
      else
        " order by " ^ String.concat ", " (List.map (fun c -> c ^ dir ()) cols)
        ^ if Random.State.bool rng then
            Printf.sprintf " limit %d" (Random.State.int rng 12)
          else ""
    in
    ignore
      (check_native cat
         (Printf.sprintf "select %s from %s%s%s%s" select from where group order))
  done

(* ---------------- typed entries ---------------- *)

(* Two tables of join keys: [k] a non-null Int (its own fold), [i] a
   nullable Int, [f] a nullable Float, [g] a non-null Float and [name] a
   nullable Varchar whose values share prefixes.  The
   floats pair +x with -x and 0. with -0., and hold nans of three bit
   patterns: the fold drops the sign bit, so only the compare separates
   +x from -x, while nans of different payloads fold apart. *)
let key_catalog () =
  let cat = Storage.Catalog.create () in
  let nan_a = Int64.float_of_bits 0x7FF8000000000001L
  and nan_b = Int64.float_of_bits 0xFFF8000000000001L
  and nan_c = Int64.float_of_bits 0x7FF8000000000002L in
  let floats =
    [| 1.5; -1.5; 0.0; -0.0; nan_a; nan_b; nan_c; 2.0; -2.0; 1.0; 3.0 |]
  in
  let ints = [| 0; 1; 2; -2; 3; 1; 0 |] in
  let names = [| ""; "x"; "xy"; "xyz"; "y"; "xy" |] in
  let add name n =
    let c x = name ^ x in
    let schema =
      Storage.Schema.make_nullable name
        [
          (c "id", V.Int, false);
          (c "k", V.Int, false);
          (c "i", V.Int, true);
          (c "f", V.Float, true);
          (c "g", V.Float, false);
          (c "name", V.Varchar 4, true);
        ]
    in
    let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
    Storage.Relation.load rel ~n (fun ~row ->
        let pick a = a.(row mod Array.length a) in
        [|
          V.VInt row;
          V.VInt (row mod 5);
          (if row mod 9 = 8 then V.Null else V.VInt (pick ints));
          (if row mod 12 = 11 then V.Null else V.VFloat (pick floats));
          V.VFloat floats.((row * 7) mod Array.length floats);
          (if row mod 10 = 9 then V.Null else V.VStr (pick names));
        |])
  in
  add "a" 23;
  add "b" 61;
  cat

(* A probe walks only the chain of its own bucket, so a key pair that is
   [Value.equal] with different folds meets the fold check only when the
   two folds share a bucket.  These tables are built to make them share
   one: an 8-row build gets 16 buckets, chosen by the prelude's [hslot]
   (a 64-bit murmur finalizer) of the fold, and the build holds ints [x]
   whose bucket is that of [float x], and nans whose bucket is that of a
   nan of another payload in the probe. *)
let collision_catalog () =
  let bucket v =
    let x = Int64.of_int (Storage.Hash_index.key_of_value v) in
    let x = Int64.logxor x (Int64.shift_right_logical x 33) in
    let x = Int64.mul x 0xff51afd7ed558ccdL in
    let x = Int64.logxor x (Int64.shift_right_logical x 33) in
    Int64.to_int (Int64.logand x 15L)
  in
  let rec find n ok x =
    if n = 0 then []
    else if ok x then x :: find (n - 1) ok (x + 1)
    else find n ok (x + 1)
  in
  let ints =
    Array.of_list
      (find 4
         (fun x -> bucket (V.VInt x) = bucket (V.VFloat (float_of_int x)))
         1)
  in
  let nan p =
    Int64.float_of_bits (Int64.logor 0x7FF8000000000000L (Int64.of_int p))
  in
  let nans =
    Array.of_list
      (find 2
         (fun p ->
           List.exists
             (fun q -> bucket (V.VFloat (nan p)) = bucket (V.VFloat (nan q)))
             (List.init 64 (fun i -> p + 1000 + i)))
         1)
  in
  let partner p =
    List.find
      (fun q -> bucket (V.VFloat (nan p)) = bucket (V.VFloat (nan q)))
      (List.init 64 (fun i -> p + 1000 + i))
  in
  let cat = Storage.Catalog.create () in
  let add name cols n row =
    let schema = Storage.Schema.make name cols in
    let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
    Storage.Relation.load rel ~n (fun ~row:r -> row r)
  in
  add "cb" [ ("cid", V.Int); ("ck", V.Int); ("cf", V.Float) ] 8 (fun r ->
      [|
        V.VInt r;
        V.VInt ints.(r mod 4);
        V.VFloat
          (if r < 4 then float_of_int ints.(r) else nan nans.(r mod 2));
      |]);
  add "cp" [ ("pid", V.Int); ("pi", V.Int); ("pg", V.Float) ] 10 (fun r ->
      [|
        V.VInt r;
        V.VInt (if r < 4 then ints.(r) else r);
        V.VFloat
          (if r < 4 then float_of_int ints.(r)
           else if r < 6 then nan (partner nans.(r mod 2))
           else [| 0.0; -0.0; 1.5; -1.5 |].(r - 6));
      |]);
  cat

let test_join_float_keys () =
  let cat = key_catalog () in
  let r = check_native cat "select aid, bid, af, bf from a join b on af = bf" in
  let matched x y =
    List.exists
      (fun row ->
        exact row.(2) = exact (V.VFloat x)
        && exact row.(3) = exact (V.VFloat y))
      r.Runtime.rows
  in
  Alcotest.(check bool) "+1.5 never matches -1.5" false (matched 1.5 (-1.5));
  Alcotest.(check bool) "0. matches -0." true (matched 0.0 (-0.0));
  Alcotest.(check bool) "nans of one payload but either sign match" true
    (matched
       (Int64.float_of_bits 0x7FF8000000000001L)
       (Int64.float_of_bits 0xFFF8000000000001L));
  Alcotest.(check bool) "nans of different payloads do not" false
    (matched
       (Int64.float_of_bits 0x7FF8000000000001L)
       (Int64.float_of_bits 0x7FF8000000000002L));
  let crafted = collision_catalog () in
  let r =
    check_native crafted "select cid, pid, cf, pg from cb join cp on cf = pg"
  in
  Alcotest.(check bool) "bucket-mate nans of other payloads never meet" false
    (List.exists
       (fun row -> match row.(2) with V.VFloat f -> Float.is_nan f | _ -> false)
       r.Runtime.rows);
  List.iter
    (fun sql -> ignore (check_native cat sql))
    [
      "select bid, aid, bf, af from b join a on bf = af";
      "select aid, bid, ag, bg from a join b on ag = bg";
      "select aid, bid, af, bg from a join b on af = bg";
    ]

(* [Value.equal] holds between an Int and a Float of one number, but the
   folds differ unless the float's bits are the int: 0 meets 0. and -0.,
   1 never meets 1.0. *)
let test_join_int_float_keys () =
  let cat = key_catalog () in
  let r = check_native cat "select aid, bid, ak, bg from a join b on ak = bg" in
  let pairs =
    List.map (fun row -> (exact row.(2), exact row.(3))) r.Runtime.rows
  in
  Alcotest.(check bool) "0 meets -0." true
    (List.mem (exact (V.VInt 0), exact (V.VFloat (-0.0))) pairs);
  Alcotest.(check bool) "1 never meets 1.0" false
    (List.exists (fun (k, _) -> k = exact (V.VInt 1)) pairs);
  List.iter
    (fun sql -> ignore (check_native cat sql))
    [
      "select aid, bid, ag, bk from a join b on ag = bk";
      "select aid, bid, ai, bf from a join b on ai = bf";
      "select bid, aid, bf, ai from b join a on bf = ai";
      "select aid, bid, af, bi from a join b on af = bi";
    ];
  let cat = collision_catalog () in
  List.iter
    (fun sql ->
      let r = check_native cat sql in
      Alcotest.(check int) (sql ^ ": bucket-mates of other folds never meet") 0
        (List.length r.Runtime.rows))
    [
      "select cid, pid, ck, pg from cb join cp on ck = pg";
      "select cid, pid, cf, pi from cb join cp on cf = pi";
    ]

(* Every entry of a repeated build key is emitted, in build order. *)
let test_join_repeated_build_keys () =
  let cat = key_catalog () in
  List.iter
    (fun sql -> ignore (check_native cat sql))
    [
      "select aid, bid, ak from a join b on ak = bk";
      "select bid, aid, bi from b join a on bi = ai";
      "select aid, bid from a join b on ak = bk where bid > 40";
      "select aid, bid, aname from a join b on aname = bname";
      "select bid, aid, bname, af from b join a on bname = aname";
    ]

(* 40,000 groups, each key twice, past what a 16-bit index addresses: the
   int32 slot index rehashes from 1,024 slots to 131,072, every second
   row finds its group, and the groups come out in insertion order. *)
let test_many_int_groups () =
  let cat = Storage.Catalog.create () in
  let schema =
    Storage.Schema.make_nullable "many"
      [ ("k", V.Int, false); ("v", V.Int, true); ("f", V.Float, false) ]
  in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  Storage.Relation.load rel ~n:80_000 (fun ~row ->
      [|
        V.VInt (row * 7919 mod 40_000);
        (if row mod 7 = 0 then V.Null else V.VInt (row mod 1000));
        V.VFloat (float_of_int (row mod 97) /. 4.0);
      |]);
  let r =
    check_native cat
      "select k, count(*) c, sum(v) s, min(v) mn, max(f) mx, avg(v) a from \
       many group by k"
  in
  Alcotest.(check int) "every key its own group" 40_000
    (List.length r.Runtime.rows);
  ignore (check_native cat "select k, v, count(*) c from many group by k, v")

(* Top-k under LIMIT: 0, at and past the row count, and cutoffs inside a
   run of ties, ascending and descending, over a join and a group-by. *)
let test_topk_limits () =
  let cat = key_catalog () in
  List.iter
    (fun (base, key) ->
      List.iter
        (fun dir ->
          let sorted = Printf.sprintf "%s order by %s%s" base key dir in
          let full = check_native cat sorted in
          let rows = Array.of_list full.Runtime.rows in
          let n = Array.length rows in
          let col =
            let rec find i =
              if full.Runtime.columns.(i) = key then i else find (i + 1)
            in
            find 0
          in
          (* every cutoff that splits a run of equal keys *)
          let ties =
            List.filter
              (fun k -> V.equal rows.(k - 1).(col) rows.(k).(col))
              (List.init (max 0 (n - 1)) (fun i -> i + 1))
          in
          Alcotest.(check bool)
            (sorted ^ ": a cutoff inside ties")
            true (ties <> []);
          List.iter
            (fun k ->
              let r =
                check_native cat (Printf.sprintf "%s limit %d" sorted k)
              in
              Alcotest.(check int)
                (Printf.sprintf "%s limit %d rows" sorted k)
                (min k n) (List.length r.Runtime.rows))
            (List.sort_uniq compare
               (let mid = List.nth ties (List.length ties / 2) in
                [ 0; List.hd ties; mid; n; n + 3 ])))
        [ ""; " desc" ])
    [
      ("select aid, bid, ak from a join b on ak = bk", "ak");
      ("select bi, count(*) c from b group by bi", "c");
    ]

(* One call serves a result of any size: well past 64 KB, with NULLs and
   varchars. *)
let test_large_result () =
  let cat = Storage.Catalog.create () in
  let schema =
    Storage.Schema.make_nullable "big"
      [ ("id", V.Int, false); ("name", V.Varchar 24, true); ("x", V.Int, true) ]
  in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  Storage.Relation.load rel ~n:4000 (fun ~row ->
      [|
        V.VInt row;
        (if row mod 9 = 0 then V.Null
         else
           V.VStr (String.make (1 + (row mod 24)) (Char.chr (97 + (row mod 26)))));
        (if row mod 4 = 0 then V.Null else V.VInt (row * 3));
      |]);
  let r = check_native cat "select id, name, x from big" in
  let bytes =
    List.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc v ->
            acc
            + match v with V.Null -> 1 | V.VStr s -> 5 + String.length s | _ -> 9)
          acc row)
      8 r.Runtime.rows
  in
  Alcotest.(check bool)
    (Printf.sprintf "result of %d bytes exceeds 64 KB" bytes)
    true (bytes > 65536)

(* Parameters are run-time values: two vectors of one type signature share
   one object (one cache miss), a NULL parameter gets its own. *)
let test_param_objects () =
  if Compiled.cc_available () then begin
    let dir = Filename.temp_dir "mrdb-params" "" in
    Unix.putenv "MRDB_COMPILE_CACHE" dir;
    Compiled.reset_cache ();
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "MRDB_COMPILE_CACHE" "";
        Compiled.reset_cache ();
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () ->
        let cat = mixed_catalog () in
        let sql = "select grp, count(*) c from m where amount > $1 group by grp" in
        let misses () = counter_value "mrdb_compiled_cache_misses_total" in
        let m0 = misses () in
        ignore (check_native ~params:[| V.VInt 3 |] cat sql);
        ignore (check_native ~params:[| V.VInt (-20) |] cat sql);
        Alcotest.(check int) "one object for one type signature" (m0 + 1)
          (misses ());
        let r = check_native ~params:[| V.Null |] cat sql in
        Alcotest.(check int) "a NULL parameter gets its own object" (m0 + 2)
          (misses ());
        Alcotest.(check int) "NULL compares false" 0 (List.length r.Runtime.rows))
  end

(* The #compile phase of a profile names the verdict. *)
let compile_label cat sql =
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  let _, profile =
    Obs.Profile.profiled (fun () -> Compiled.run cat plan ~params:[||])
  in
  match
    Obs.Span.find profile
      (Obs.Span.phase_id (Obs.Span.child Obs.Span.root_id 0) "#compile")
  with
  | Some n -> n.Obs.Span.label
  | None -> Alcotest.fail "no #compile span"

let test_fallback_reason () =
  let cat = Helpers.small_catalog ~n:20 () in
  Alcotest.(check string) "like falls back with its reason"
    "#compile jit fallback: like"
    (compile_label cat "select id from t where name like 'a%'");
  if Compiled.cc_available () then
    Alcotest.(check string) "a compiled plan says native" "#compile native"
      (compile_label cat "select grp, count(*) c from t group by grp")

(* ---------------- the entry cache ---------------- *)

let emitted () = counter_value "mrdb_compiled_units_emitted_total"
let fallbacks () = counter_value "mrdb_compiled_fallbacks_total"

(* A statement parsed and planned again is a new plan value, yet its run
   is served by the loaded entry: no emission, a native verdict, an
   exact answer. *)
let test_entry_reparsed () =
  if Compiled.cc_available () then begin
    let cat = mixed_catalog () in
    let sql =
      "select grp, count(*) c, sum(score) s from m where score > 0.5 and id \
       < $1 group by grp order by s desc"
    in
    ignore (check_native ~params:[| V.VInt 200 |] cat sql);
    let e0 = emitted () in
    ignore (check_native ~params:[| V.VInt 200 |] cat sql);
    ignore (check_native ~params:[| V.VInt 17 |] cat sql);
    Alcotest.(check int) "re-parsed runs emit nothing" e0 (emitted ());
    let grouped = "select grp, count(*) c from m group by grp" in
    ignore (compile_label cat grouped);
    let e1 = emitted () in
    Alcotest.(check string) "an entry hit says native" "#compile native"
      (compile_label cat grouped);
    Alcotest.(check int) "and emits nothing" e1 (emitted ())
  end

(* A repartitioned table gets a unit for its new layout, which then serves
   its reruns; a compressed one falls back with its reason. *)
let test_entry_relayout () =
  if Compiled.cc_available () then begin
    let cat = Storage.Catalog.create () in
    let schema = Storage.Schema.make "c" [ ("k", V.Int); ("v", V.Int) ] in
    let rows =
      Array.init 200 (fun i -> [| V.VInt (i mod 4); V.VInt (i mod 50) |])
    in
    let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
    Array.iter (fun r -> ignore (Storage.Relation.append rel r)) rows;
    let sql = "select k, count(*) c, sum(v) s from c where v > 3 group by k" in
    ignore (check_native cat sql);
    let e0 = emitted () in
    Storage.Catalog.set_layout cat "c" (Storage.Layout.column schema);
    ignore (check_native cat sql);
    ignore (check_native cat sql);
    Alcotest.(check int) "a new layout emits once more" (e0 + 1) (emitted ());
    let encodings = Storage.Compress.plan_rows schema rows in
    Storage.Catalog.set_physical cat "c"
      ~layout:
        (Storage.Compress.singleton_layout schema
           (Storage.Layout.row schema)
           encodings)
      encodings;
    let f0 = fallbacks () in
    Alcotest.(check string) "a compressed table falls back with its reason"
      "#compile jit fallback: compressed encodings" (compile_label cat sql);
    Alcotest.(check int) "and the fallback is counted" (f0 + 1) (fallbacks ())
  end

(* One table [x] whose column [b] is Int in one catalog and Float in the
   other: both are 8 bytes wide, so only the schema tells the units apart. *)
let typed_catalog ty =
  let cat = Storage.Catalog.create () in
  let schema = Storage.Schema.make "x" [ ("a", V.Int); ("b", ty) ] in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  Storage.Relation.load rel ~n:40 (fun ~row ->
      [|
        V.VInt (row mod 3);
        (if ty = V.Float then V.VFloat (float_of_int row /. 4.0)
         else V.VInt (row * 5));
      |]);
  cat

let test_entry_per_catalog () =
  let ints = typed_catalog V.Int and floats = typed_catalog V.Float in
  let sql = "select a, sum(b) s, max(b) m from x where b > 2 group by a" in
  List.iter
    (fun cat -> ignore (check_native cat sql))
    [ ints; floats; ints; floats ];
  (* the same catalog, with the table replaced under the same name *)
  let replaced = typed_catalog V.Int in
  ignore (check_native replaced sql);
  let schema = Storage.Schema.make "x" [ ("a", V.Int); ("b", V.Float) ] in
  let rel = Storage.Catalog.add replaced schema (Storage.Layout.row schema) in
  Storage.Relation.load rel ~n:9 (fun ~row ->
      [| V.VInt row; V.VFloat (float_of_int row +. 0.5) |]);
  ignore (check_native replaced sql)

(* [0.] and [-0.] are equal under [=] and [compare]; plans that differ
   only there must still get their own units. *)
let test_entry_signed_zero () =
  let module P = Relalg.Physical in
  let module E = Relalg.Expr in
  let cat = mixed_catalog ~n:40 () in
  let plan z =
    P.Project
      {
        child =
          P.Scan { table = "m"; access = P.Full_scan; post = None; sel = 1.0 };
        exprs =
          [
            (E.Col 0, "id");
            (E.Const (V.VFloat z), "z");
            (E.Arith (E.Add, E.Col 3, E.Const (V.VFloat z)), "s");
          ];
      }
  in
  let f0 = fallbacks () in
  List.iter
    (fun z ->
      let p = plan z in
      let r = Compiled.run cat p ~params:[||] in
      check_exact (Printf.sprintf "%h" z)
        (Engines.Jit.run cat p ~params:[||])
        r;
      List.iter
        (fun row ->
          Alcotest.(check string) "constant bits" (exact (V.VFloat z))
            (exact row.(1)))
        r.Runtime.rows)
    [ 0.0; -0.0; 0.0; -0.0 ];
  if Compiled.cc_available () then
    Alcotest.(check int) "every run native" f0 (fallbacks ())

(* MRDB_NO_CC is read on every run, also when a loaded entry exists. *)
let test_entry_no_cc () =
  if Compiled.cc_available () then begin
    let cat = mixed_catalog ~n:60 () in
    let sql = "select grp, min(amount) mn from m group by grp" in
    ignore (check_native cat sql);
    let f0 = fallbacks () in
    Unix.putenv "MRDB_NO_CC" "1";
    Fun.protect
      ~finally:(fun () -> Unix.putenv "MRDB_NO_CC" "")
      (fun () -> ignore (check_native cat sql));
    Alcotest.(check int) "the fallback is counted" (f0 + 1) (fallbacks ());
    let e0 = emitted () in
    ignore (check_native cat sql);
    Alcotest.(check int) "native again, without emitting" e0 (emitted ())
  end

(* Entries die with their catalog: running on many fresh catalogs, each
   with its own statement text (distinct keys, one C source), leaves the
   live heap where a few catalogs leave it.  One leaked entry would hold
   hundreds of words, one unpruned slot about 15. *)
let test_entry_lifetime () =
  let fresh i =
    let cat = mixed_catalog ~n:8 () in
    let sql = Printf.sprintf "select id c%d, grp from m where id < 5" i in
    let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
    ignore (Compiled.run cat plan ~params:[||])
  in
  let live_after n =
    for i = 1 to n do
      fresh i
    done;
    Gc.full_major ();
    (* a new catalog's slot drops the collected ones *)
    fresh 0;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (live_after 20);
  let few = live_after 20 in
  let many = live_after 400 in
  Alcotest.(check bool)
    (Printf.sprintf "live words %d after 20 catalogs, %d after 400" few many)
    true
    (many - few < 2 * 380)

(* ---------------- dense join keys and groupjoins ---------------- *)

(* Tables [<name>b] (bid, bk, bv: a build of the non-null Int keys [keys],
   in that order) and [<name>p] (pid, pk a nullable Int, pf a nullable
   Float, pd a Date, pb a Bool): the probe holds every build key, the keys
   one past each end of the range and far outside it, and misses inside
   it, each twice; pk is NULL on some rows, and pf is 0. or -0. on some. *)
let dense_tables cat name keys =
  let add tname cols n row =
    let schema = Storage.Schema.make_nullable tname cols in
    let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
    Storage.Relation.load rel ~n (fun ~row:r -> row r)
  in
  let kb = Array.of_list keys in
  add (name ^ "b")
    [ ("bid", V.Int, false); ("bk", V.Int, false); ("bv", V.Int, false) ]
    (Array.length kb)
    (fun r -> [| V.VInt r; V.VInt kb.(r); V.VInt (r * 7 mod 10) |]);
  (* x + d, or x where that would wrap *)
  let near x d =
    if (d > 0 && x > max_int - d) || (d < 0 && x < min_int - d) then x
    else x + d
  in
  let around =
    match keys with
    | [] -> [ -1; 0; 1 ]
    | k :: _ ->
        let lo = List.fold_left min k keys and hi = List.fold_left max k keys in
        List.concat_map
          (fun x -> [ near x (-1000); near x (-1); near x 1; near x 1000 ])
          [ lo; hi ]
        @ [ (lo / 2) + (hi / 2); 0; 1 ]
  in
  let pv = Array.of_list (List.sort_uniq compare (keys @ around)) in
  let n = Array.length pv in
  add (name ^ "p")
    [
      ("pid", V.Int, false);
      ("pk", V.Int, true);
      ("pf", V.Float, true);
      ("pd", V.Date, false);
      ("pb", V.Bool, false);
    ]
    (2 * n)
    (fun r ->
      let v = pv.(r mod n) in
      [|
        V.VInt r;
        (if r mod 5 = 4 then V.Null else V.VInt v);
        (match r mod 3 with
        | 0 -> V.VFloat 0.0
        | 1 -> V.VFloat (-0.0)
        | _ -> V.VFloat (float_of_int v));
        V.VDate v;
        V.VBool (r mod 2 = 0);
      |])

(* Joins on a build key that is its own fold, against Jit and Bulk, row
   for row: direct-mapped (dense) and hashed (sparse) builds, a range at
   the 8n + 64 threshold and one past it, negative keys, keys at both ends
   of the int range (the range there needs the unsigned difference),
   keys around the NULL fold (OCaml min_int / 2), repeated build keys,
   empty and one-entry builds, and NULL, Float 0./-0., Date and Bool
   probes against the Int build; then Date and Bool builds. *)
let test_dense_join_keys () =
  let cat = Storage.Catalog.create () in
  let cases =
    [
      ("dn", [ 5; 3; 5; 9; 3; 3; 12; 7; 5; 0; 1; 2 ]);
      ("sp", List.init 12 (fun i -> (i * i * 1000) - 50_000));
      ("at", [ 0; 144; 3; 3; 50; 77; 100; 143; 1; 2 ]);
      ("ov", [ 0; 145; 3; 3; 50; 77; 100; 144; 1; 2 ]);
      ("ng", [ -7; -3; -20; -3; -11; -1 ]);
      ("hi", [ max_int; max_int - 5; max_int - 2; max_int - 5 ]);
      ("lo", [ min_int; min_int + 3; min_int + 1; min_int ]);
      ("mx", [ min_int; max_int; 0; max_int ]);
      ("nf", [ (min_int / 2) - 2; min_int / 2; (min_int / 2) + 3 ]);
      ("em", []);
      ("one", [ 42 ]);
    ]
  in
  List.iter
    (fun (name, keys) ->
      dense_tables cat name keys;
      let b = name ^ "b" and p = name ^ "p" in
      let q fmt = Printf.sprintf fmt b p in
      let r = check_native cat (q "select bid, pid, bk, pk from %s join %s on bk = pk") in
      (* every build key is also a probe key *)
      Alcotest.(check bool)
        (name ^ ": int keys matched")
        (keys <> []) (r.Runtime.rows <> []);
      List.iter
        (fun sql -> ignore (check_native cat (q sql)))
        [
          "select bid, pid, pf from %s join %s on bk = pf";
          "select bid, pid, pd from %s join %s on bk = pd";
          "select bid, pid, pb from %s join %s on bk = pb";
          "select bid, count(*) c from %s join %s on bk = pk group by bid";
        ];
      List.iter
        (fun sql -> ignore (check_native cat (Printf.sprintf sql p b)))
        [
          "select pid, bid, pd from %s join %s on pd = bk";
          "select pid, bid, pb, bk from %s join %s on pb = bk";
        ])
    cases

(* Tables for groupjoins: a build [gb] whose join keys repeat and whose
   group columns (bg a Varchar, bn a nullable Int) are shared by entries
   of different keys and differ between entries of one key; a probe [gp]
   whose early rows fail [pv > bid]; and [gq], joined to [gp]. *)
let groupjoin_catalog () =
  let cat = Storage.Catalog.create () in
  let add name cols n row =
    let schema = Storage.Schema.make_nullable name cols in
    let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
    Storage.Relation.load rel ~n (fun ~row:r -> row r)
  in
  let names = [| "x"; "yy"; "zzz"; "x" |] in
  add "gb"
    [
      ("bid", V.Int, false);
      ("bk", V.Int, false);
      ("bg", V.Varchar 4, false);
      ("bn", V.Int, true);
      ("bv", V.Int, false);
    ]
    12
    (fun r ->
      [|
        V.VInt r;
        V.VInt (r mod 6);
        V.VStr names.(r mod 4);
        (if r mod 5 = 2 then V.Null else V.VInt (r mod 3));
        V.VInt (r * 5 mod 7);
      |]);
  add "gp"
    [
      ("pid", V.Int, false);
      ("pk", V.Int, false);
      ("pv", V.Int, false);
      ("pw", V.Int, true);
    ]
    40
    (fun r ->
      [|
        V.VInt r;
        V.VInt (r * 7 mod 8);
        V.VInt (if r < 15 then r mod 3 else 20 + r);
        (if r mod 4 = 1 then V.Null else V.VInt ((r * 13 mod 17) - 8));
      |]);
  add "gq" [ ("qid", V.Int, false); ("qv", V.Int, false) ] 30 (fun r ->
      [| V.VInt (r * 3 mod 45); V.VInt r |]);
  cat

(* A group-by over a join whose keys come from the build side reads each
   group once per build entry and steps it through the entry's cached
   index afterwards: groups, their order and their MIN/MAX must be those
   of the plain lookup (against Jit and Bulk), with a filter between the
   join and the group-by, over a join of a join, and across calls of one
   unit whose builds differ; keys that read the probe side, and global
   aggregates, keep the plain path. *)
let test_groupjoin () =
  let cat = groupjoin_catalog () in
  let plan_of sql = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  let unit_groupjoins plan =
    match Engines.C_emitter.emit_unit cat plan ~params:[| V.VInt 0 |] with
    | Ok info -> info.Engines.C_emitter.groupjoins
    | Error reason -> Alcotest.failf "fallback %s" reason
  in
  let groupjoins sql = unit_groupjoins (plan_of sql) in
  List.iter
    (fun (sql, cached) ->
      ignore (check_native cat sql);
      Alcotest.(check int) (sql ^ ": groupjoins") cached (groupjoins sql))
    [
      ("select bg, count(*) c, sum(pv) s from gb join gp on bk = pk group by bg", 1);
      ( "select bk, bg, min(pv) mn, max(pv) mx, min(pw) mnw, max(pw) mxw from \
         gb join gp on bk = pk group by bk, bg",
        1 );
      ( "select bg, count(*) c, min(pv) m, max(pw) w from gb join gp on bk = \
         pk where pv > bid group by bg",
        1 );
      ("select bn, count(*) c, max(pv) m from gb join gp on bk = pk group by bn", 1);
      ( "select bg, count(*) c from gb join gp on bk = pk join gq on pid = qid \
         group by bg",
        1 );
      ("select bg, pw, count(*) c from gb join gp on bk = pk group by bg, pw", 0);
      ( "select count(*) c, sum(pv) s, min(pw) m from gb join gp on bk = pk",
        0 );
    ];
  (* one unit, two calls whose builds hold different entries *)
  let sql =
    "select bg, count(*) c, sum(pv) s from gb join gp on bk = pk where bv > \
     $1 group by bg"
  in
  List.iter
    (fun v -> ignore (check_native ~params:[| V.VInt v |] cat sql))
    [ 3; -1; 5; 3 ];
  Alcotest.(check int) "parameterized: groupjoins" 1 (groupjoins sql);
  (* The planner puts no Project between a join and its group-by; one put
     there by hand, reversing the join's columns, keeps the groupjoin. *)
  let module P = Relalg.Physical in
  let rec through_project (p : P.t) =
    match p with
    | P.Project { child; exprs } ->
        P.Project { child = through_project child; exprs }
    | P.Group_by ({ child = P.Hash_join _ as j; keys; aggs; _ } as g) ->
        let n = Array.length (P.schema cat j) in
        let flip i = n - 1 - i in
        let remap e = Relalg.Expr.remap e flip in
        P.Group_by
          {
            g with
            child =
              P.Project
                {
                  child = j;
                  exprs =
                    List.init n (fun i ->
                        (Relalg.Expr.Col (flip i), Printf.sprintf "c%d" i));
                };
            keys = List.map (fun (e, name) -> (remap e, name)) keys;
            aggs =
              List.map
                (fun (a : Relalg.Aggregate.t) ->
                  { a with expr = Option.map remap a.expr })
                aggs;
          }
    | p -> Alcotest.failf "unexpected plan %s" (Format.asprintf "%a" P.pp p)
  in
  let plan =
    through_project
      (plan_of
         "select bg, count(*) c, sum(pv) s, min(pw) m from gb join gp on bk \
          = pk group by bg")
  in
  let fb0 = counter_value "mrdb_compiled_fallbacks_total" in
  let compiled = Compiled.run cat plan ~params:[||] in
  if Compiled.cc_available () then
    Alcotest.(check int) "through a Project: native" fb0
      (counter_value "mrdb_compiled_fallbacks_total");
  check_exact "through a Project"
    (Engine.run Engine.Jit cat plan ~params:[||])
    compiled;
  Alcotest.(check int) "through a Project: groupjoins" 1 (unit_groupjoins plan)

let suite =
  [
    Alcotest.test_case "parity vs jit" `Quick (test_parity_vs Engine.Jit);
    Alcotest.test_case "parity vs bulk" `Quick (test_parity_vs Engine.Bulk);
    Alcotest.test_case "overflow-wrap sums" `Quick test_overflow_wrap;
    Alcotest.test_case "compressed layout falls back" `Quick
      test_compressed_fallback;
    Alcotest.test_case "MRDB_NO_CC forces fallback" `Quick
      test_no_cc_fallback;
    Alcotest.test_case "object cache hit/miss counters" `Quick
      test_cache_hit_counting;
    Alcotest.test_case "morsel-parallel compiled" `Quick
      test_parallel_compiled;
    Alcotest.test_case "CH suite native under IP layouts" `Quick test_ch_suite;
    Alcotest.test_case "join on NULL keys" `Quick test_join_null_keys;
    Alcotest.test_case "join int key to date key" `Quick test_join_int_date;
    Alcotest.test_case "order by ties under limit" `Quick
      test_order_by_ties_limit;
    Alcotest.test_case "nan and -0. sort keys" `Quick test_nan_zero_sort;
    Alcotest.test_case "varchar group keys" `Quick test_varchar_group_keys;
    Alcotest.test_case "random join/group/sort SQL" `Quick test_random_joins;
    Alcotest.test_case "result past 64 KB in one call" `Quick
      test_large_result;
    Alcotest.test_case "parameter objects by type signature" `Quick
      test_param_objects;
    Alcotest.test_case "fallback reason on #compile" `Quick
      test_fallback_reason;
    Alcotest.test_case "entry serves a re-parsed statement" `Quick
      test_entry_reparsed;
    Alcotest.test_case "entry re-emits for a new layout" `Quick
      test_entry_relayout;
    Alcotest.test_case "entry per catalog and schema" `Quick
      test_entry_per_catalog;
    Alcotest.test_case "entry keys float bits" `Quick test_entry_signed_zero;
    Alcotest.test_case "entry rereads MRDB_NO_CC" `Quick test_entry_no_cc;
    Alcotest.test_case "entries die with their catalog" `Quick
      test_entry_lifetime;
    Alcotest.test_case "join on float keys" `Quick test_join_float_keys;
    Alcotest.test_case "join int keys to float keys" `Quick
      test_join_int_float_keys;
    Alcotest.test_case "join on repeated build keys" `Quick
      test_join_repeated_build_keys;
    Alcotest.test_case "group by many int keys" `Quick test_many_int_groups;
    Alcotest.test_case "top-k under limit" `Quick test_topk_limits;
    Alcotest.test_case "dense join keys" `Quick test_dense_join_keys;
    Alcotest.test_case "groupjoin" `Quick test_groupjoin;
  ]
