(* The transaction layer: snapshot-isolation MVCC semantics, the client
   retry machinery, the wire protocol, the multi-client server over real
   sockets, and — the centerpiece — an exhaustive crash-point ×
   interleaving matrix: two clients' transactions interleaved under a set
   of schedules, crashed at every injected fault point, and recovered; the
   recovered catalog must be value-identical (Snapshot.digest) to a
   committed prefix of that schedule's history, at least as recent as the
   last commit that was fully durable. *)

module V = Storage.Value
module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema
module F = Durability.Faultio
module D = Durability.Durable
module Snapshot = Durability.Snapshot
module Recover = Durability.Recover
module Errors = Mrdb_util.Errors
module M = Txn.Mvcc
module S = Txn.Server

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let schema_b = Schema.make "b" [ ("id", V.Int); ("v", V.Int) ]

let small_cat ?(rows = 4) () =
  let cat = Catalog.create () in
  let rel = Catalog.add cat schema_b (Layout.row schema_b) in
  for i = 0 to rows - 1 do
    ignore (Relation.append rel [| V.VInt i; V.VInt (10 * i) |])
  done;
  cat

let vint = function
  | V.VInt i -> i
  | v -> Alcotest.failf "expected VInt, got %s" (V.to_display v)

(* ------------------------------------------------------------------ *)
(* MVCC semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_snapshot_isolation () =
  let mgr = M.create (small_cat ()) in
  let t1 = M.begin_ mgr in
  let t2 = M.begin_ mgr in
  M.update t2 "b" 0 1 (V.VInt 42);
  ignore (M.commit t2);
  (* t1's snapshot predates t2's commit *)
  Alcotest.(check int) "t1 reads pre-commit value" 0 (vint (M.read t1 "b" 0 1));
  let t3 = M.begin_ mgr in
  Alcotest.(check int) "t3 reads committed value" 42 (vint (M.read t3 "b" 0 1));
  M.abort t1;
  M.abort t3

let test_read_own_writes () =
  let mgr = M.create (small_cat ()) in
  let t = M.begin_ mgr in
  M.update t "b" 1 1 (V.VInt 7);
  Alcotest.(check int) "own write served" 7 (vint (M.read t "b" 1 1));
  M.abort t;
  (* aborted: nothing visible *)
  M.snapshot mgr (fun s ->
      Alcotest.(check int) "abort discarded" 10 (vint (M.read s "b" 1 1)))

let test_first_committer_wins () =
  let mgr = M.create (small_cat ()) in
  let t1 = M.begin_ mgr in
  let t2 = M.begin_ mgr in
  M.update t1 "b" 2 1 (V.VInt 100);
  M.update t2 "b" 2 1 (V.VInt 200);
  ignore (M.commit t1);
  (match M.commit t2 with
  | _ -> Alcotest.fail "second committer must conflict"
  | exception Errors.Txn_conflict _ -> ());
  (match M.status t2 with
  | M.Aborted _ -> ()
  | _ -> Alcotest.fail "loser must be aborted");
  M.snapshot mgr (fun s ->
      Alcotest.(check int) "first committer's value survives" 100
        (vint (M.read s "b" 2 1)))

let test_write_skew_permitted () =
  (* the canonical SI anomaly: both read x+y, each writes a different
     cell — disjoint write sets, so FCW lets both commit (DESIGN.md §5h) *)
  let mgr = M.create (small_cat ()) in
  let t1 = M.begin_ mgr in
  let t2 = M.begin_ mgr in
  let sum1 = vint (M.read t1 "b" 0 1) + vint (M.read t1 "b" 1 1) in
  let sum2 = vint (M.read t2 "b" 0 1) + vint (M.read t2 "b" 1 1) in
  M.update t1 "b" 0 1 (V.VInt (sum1 - 60));
  M.update t2 "b" 1 1 (V.VInt (sum2 - 60));
  ignore (M.commit t1);
  (* under serializability this would conflict; under SI it must not *)
  ignore (M.commit t2)

let test_insert_visibility () =
  let mgr = M.create (small_cat ()) in
  let t1 = M.begin_ mgr in
  let t2 = M.begin_ mgr in
  M.insert t2 "b" [| V.VInt 4; V.VInt 40 |];
  ignore (M.commit t2);
  Alcotest.(check int) "old snapshot sees the prefix" 4 (M.visible_rows t1 "b");
  M.abort t1;
  M.snapshot mgr (fun s ->
      Alcotest.(check int) "new snapshot sees the insert" 5
        (M.visible_rows s "b");
      Alcotest.(check int) "inserted row readable" 40 (vint (M.read s "b" 4 1)))

let test_timeout_not_retried () =
  let mgr = M.create (small_cat ()) in
  let t = M.begin_ ~timeout:0.01 mgr in
  Unix.sleepf 0.03;
  (match M.read t "b" 0 1 with
  | _ -> Alcotest.fail "expired transaction must refuse"
  | exception Errors.Txn_timeout _ -> ());
  (match M.status t with
  | M.Aborted _ -> ()
  | _ -> Alcotest.fail "timeout must abort");
  (* the retry loop never retries a timeout: the deadline is a promise *)
  let attempts = ref 0 in
  (match
     M.run ~timeout:0.01 mgr (fun txn ->
         incr attempts;
         Unix.sleepf 0.03;
         ignore (M.read txn "b" 0 1))
   with
  | _ -> Alcotest.fail "expected the timeout to propagate"
  | exception Errors.Txn_timeout _ -> ());
  Alcotest.(check int) "one attempt only" 1 !attempts

let test_run_retries_conflicts () =
  let mgr = M.create (small_cat ()) in
  let attempts = ref 0 in
  let final =
    M.run mgr (fun txn ->
        incr attempts;
        let v = vint (M.read txn "b" 3 1) in
        if !attempts = 1 then begin
          (* sabotage the first attempt with an overlapping committer *)
          let rival = M.begin_ mgr in
          M.update rival "b" 3 1 (V.VInt 1000);
          ignore (M.commit rival)
        end;
        M.update txn "b" 3 1 (V.VInt (v + 1));
        v + 1)
  in
  Alcotest.(check int) "retried once" 2 !attempts;
  Alcotest.(check int) "second attempt saw the rival's commit" 1001 final;
  M.snapshot mgr (fun s ->
      Alcotest.(check int) "committed" 1001 (vint (M.read s "b" 3 1)))

let test_gc_prunes_versions () =
  let mgr = M.create (small_cat ()) in
  let reader = M.begin_ mgr in
  M.run mgr (fun txn -> M.update txn "b" 0 1 (V.VInt 1));
  M.run mgr (fun txn -> M.update txn "b" 0 1 (V.VInt 2));
  Alcotest.(check bool) "versions pinned by the open reader" true
    (M.retained_versions mgr > 0);
  Alcotest.(check int) "pinned reader still reads its snapshot" 0
    (vint (M.read reader "b" 0 1));
  M.abort reader;
  (* GC runs at commit; the next commit prunes everything below the clock *)
  M.run mgr (fun txn -> M.update txn "b" 1 1 (V.VInt 3));
  Alcotest.(check int) "all versions pruned once no snapshot needs them" 0
    (M.retained_versions mgr)

(* ------------------------------------------------------------------ *)
(* Error taxonomy, wire protocol, backoff                              *)
(* ------------------------------------------------------------------ *)

let test_error_taxonomy () =
  Alcotest.(check (option int)) "conflict exit code" (Some 3)
    (Errors.exit_code_of (Errors.Txn_conflict "x"));
  Alcotest.(check (option int)) "timeout exit code" (Some 4)
    (Errors.exit_code_of (Errors.Txn_timeout "x"));
  Alcotest.(check (option int)) "busy exit code" (Some 5)
    (Errors.exit_code_of (Errors.Server_busy "x"));
  Alcotest.(check (option int)) "bad request exit code" (Some 8)
    (Errors.exit_code_of (Errors.Bad_request "x"));
  List.iter
    (fun e ->
      match Errors.wire_tag_of e with
      | None -> Alcotest.failf "no wire tag for %s" (Printexc.to_string e)
      | Some tag -> (
          match Errors.of_wire_tag tag "m" with
          | Some e' ->
              Alcotest.(check string) ("tag " ^ tag) (Printexc.exn_slot_name e)
                (Printexc.exn_slot_name e')
          | None -> Alcotest.failf "tag %s does not round-trip" tag))
    [ Errors.Txn_conflict "m"; Errors.Txn_timeout "m"; Errors.Server_busy "m";
      Errors.Bad_request "m" ];
  List.iter
    (fun e ->
      match Errors.to_diagnostic e with
      | Some d -> Alcotest.(check bool) "one-line diagnostic" false
                    (String.contains d '\n')
      | None -> Alcotest.failf "no diagnostic for %s" (Printexc.to_string e))
    [ Errors.Txn_conflict "m"; Errors.Txn_timeout "m"; Errors.Server_busy "m";
      Errors.Bad_request "m" ]

let test_wire_roundtrip () =
  let reqs =
    [
      Txn.Wire.Hello "client with spaces %|";
      Txn.Wire.Begin;
      Txn.Wire.Get { table = "acct"; tid = 3; attr = 1 };
      Txn.Wire.Set { table = "t x"; tid = 0; attr = 2; value = V.VStr "a b|c%" };
      Txn.Wire.Insert
        { table = "t"; values = [| V.VInt (-5); V.Null; V.VFloat 1.5;
                                   V.VBool true; V.VDate 7; V.VStr "" |] };
      Txn.Wire.Rows "t";
      Txn.Wire.Sum { table = "t"; attr = 0 };
      Txn.Wire.Commit None;
      Txn.Wire.Commit (Some "cli#12");
      Txn.Wire.Abort;
      Txn.Wire.Ping;
      Txn.Wire.Quit;
    ]
  in
  List.iter
    (fun r ->
      let line = Txn.Wire.encode_request r in
      Alcotest.(check bool)
        (Printf.sprintf "request %S round-trips" line)
        true
        (Txn.Wire.parse_request line = r))
    reqs;
  let reps =
    [
      Txn.Wire.Ok_ "";
      Txn.Wire.Ok_ "17";
      Txn.Wire.Val (V.VStr "x y\nz");
      Txn.Wire.Val V.Null;
      Txn.Wire.Err { tag = "CONFLICT"; msg = "write-write on b[0].1" };
    ]
  in
  List.iter
    (fun r ->
      let line = Txn.Wire.encode_reply r in
      Alcotest.(check bool)
        (Printf.sprintf "reply %S round-trips" line)
        true
        (Txn.Wire.parse_reply line = r))
    reps;
  match Txn.Wire.exn_of_reply (Txn.Wire.Err { tag = "CONFLICT"; msg = "m" }) with
  | Some (Errors.Txn_conflict _) -> ()
  | _ -> Alcotest.fail "CONFLICT reply must map to Txn_conflict"

(* The Printf encoders of the wire codec, kept as the byte-identity oracle
   for its Printf-free ones. *)
module Printf_wire = struct
  module W = Txn.Wire

  let must_escape c = c <= ' ' || c > '~' || c = '%' || c = '|'

  let escape s =
    if String.exists must_escape s then begin
      let b = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          if must_escape c then
            Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
          else Buffer.add_char b c)
        s;
      Buffer.contents b
    end
    else s

  let encode_value = function
    | V.Null -> "null"
    | V.VInt i -> Printf.sprintf "i:%d" i
    | V.VFloat f -> Printf.sprintf "f:%h" f
    | V.VBool b -> Printf.sprintf "b:%b" b
    | V.VDate d -> Printf.sprintf "d:%d" d
    | V.VStr s -> "s:" ^ escape s

  let encode_values vs =
    String.concat "|" (Array.to_list (Array.map encode_value vs))

  let encode_request = function
    | W.Hello id -> "HELLO " ^ escape id
    | W.Begin -> "BEGIN"
    | W.Get { table; tid; attr } ->
        Printf.sprintf "GET %s %d %d" (escape table) tid attr
    | W.Set { table; tid; attr; value } ->
        Printf.sprintf "SET %s %d %d %s" (escape table) tid attr
          (encode_value value)
    | W.Insert { table; values } ->
        Printf.sprintf "INSERT %s %s" (escape table) (encode_values values)
    | W.Rows table -> "ROWS " ^ escape table
    | W.Sum { table; attr } -> Printf.sprintf "SUM %s %d" (escape table) attr
    | W.Commit None -> "COMMIT"
    | W.Commit (Some token) -> "COMMIT " ^ escape token
    | W.Abort -> "ABORT"
    | W.Ping -> "PING"
    | W.Quit -> "QUIT"

  let encode_reply = function
    | W.Ok_ "" -> "OK"
    | W.Ok_ detail -> "OK " ^ escape detail
    | W.Val v -> "VAL " ^ encode_value v
    | W.Err { tag; msg } -> Printf.sprintf "ERR %s %s" tag (escape msg)
end

let gen_wire_string =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ ""; " "; "%"; "|"; "\n"; "a b|c% \xc3\xa9"; "%7C"; "\x00\xff~" ];
        string_size ~gen:char (int_range 0 12);
        string_size ~gen:printable (int_range 0 12);
      ])

(* Names sit in a line's last field, where an empty one would vanish. *)
let gen_wire_name =
  QCheck.Gen.map (fun s -> if s = "" then "t" else s) gen_wire_string

let gen_wire_int =
  QCheck.Gen.(
    oneof [ oneofl [ min_int; max_int; 0; -1; -10 ]; int; int_range (-999) 999 ])

let gen_wire_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ Float.nan; -.Float.nan; infinity; neg_infinity; -0.; 0.; 4.9e-324;
            max_float; min_float; 0.1 ];
        float;
        map Int64.float_of_bits ui64;
      ])

let gen_wire_value =
  QCheck.Gen.(
    oneof
      [
        return V.Null;
        map (fun i -> V.VInt i) gen_wire_int;
        map (fun f -> V.VFloat f) gen_wire_float;
        map (fun b -> V.VBool b) bool;
        map (fun d -> V.VDate d) gen_wire_int;
        map (fun s -> V.VStr s) gen_wire_string;
      ])

let gen_wire_request =
  let open QCheck.Gen in
  let module W = Txn.Wire in
  oneof
    [
      map (fun id -> W.Hello id) gen_wire_name;
      return W.Begin;
      map3
        (fun table tid attr -> W.Get { table; tid; attr })
        gen_wire_name gen_wire_int gen_wire_int;
      map2
        (fun (table, tid) (attr, value) -> W.Set { table; tid; attr; value })
        (pair gen_wire_name gen_wire_int)
        (pair gen_wire_int gen_wire_value);
      map2
        (fun table values -> W.Insert { table; values })
        gen_wire_name
        (array_size (int_range 1 6) gen_wire_value);
      map (fun t -> W.Rows t) gen_wire_name;
      map2 (fun table attr -> W.Sum { table; attr }) gen_wire_name gen_wire_int;
      map (fun token -> W.Commit token) (opt gen_wire_name);
      oneofl [ W.Abort; W.Ping; W.Quit ];
    ]

let gen_wire_reply =
  let open QCheck.Gen in
  let module W = Txn.Wire in
  oneof
    [
      return (W.Ok_ "");
      map (fun d -> W.Ok_ d) gen_wire_name;
      map (fun v -> W.Val v) gen_wire_value;
      map2
        (fun tag msg -> W.Err { tag; msg })
        (oneofl [ "CONFLICT"; "BAD_REQUEST"; "ERROR" ])
        gen_wire_string;
    ]

(* [parse] inverts [encode] on [x]: the parse compares equal and encodes
   back to the same bytes, which also tells -0. from 0. *)
let inverts ~encode ~parse x =
  let line = encode x in
  let back = parse line in
  compare back x = 0 && encode back = line

let qcheck_wire_printf_free =
  QCheck.Test.make ~count:2000
    ~name:"Printf-free encoders match the Printf ones; parsing inverts them"
    (QCheck.make
       QCheck.Gen.(
         triple gen_wire_request gen_wire_reply
           (array_size (int_range 1 6) gen_wire_value)))
    (fun (req, rep, vs) ->
      let module W = Txn.Wire in
      W.encode_request req = Printf_wire.encode_request req
      && W.encode_reply rep = Printf_wire.encode_reply rep
      && W.encode_values vs = Printf_wire.encode_values vs
      && Array.for_all
           (fun v -> W.encode_value v = Printf_wire.encode_value v)
           vs
      && inverts ~encode:W.encode_request ~parse:W.parse_request req
      && inverts ~encode:W.encode_reply ~parse:W.parse_reply rep
      && inverts ~encode:W.encode_values ~parse:W.decode_values vs)

(* Decoders built on String.trim, split_on_char and int_of_string per
   field: the reference grammar the wire codec's in-place decoders must
   read exactly, kept as their oracle. *)
module Split_wire = struct
  module W = Txn.Wire

  let unescape s =
    if not (String.contains s '%') then s
    else begin
      let b = Buffer.create (String.length s) in
      let n = String.length s in
      let i = ref 0 in
      while !i < n do
        if s.[!i] = '%' && !i + 2 < n then begin
          match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
          | Some code ->
              Buffer.add_char b (Char.chr code);
              i := !i + 3
          | None ->
              Buffer.add_char b s.[!i];
              incr i
        end
        else begin
          Buffer.add_char b s.[!i];
          incr i
        end
      done;
      Buffer.contents b
    end

  let decode_value s =
    let payload () = String.sub s 2 (String.length s - 2) in
    if s = "null" then V.Null
    else if String.length s < 2 || s.[1] <> ':' then failwith "bad value"
    else
      match s.[0] with
      | 'i' -> (
          match int_of_string_opt (payload ()) with
          | Some i -> V.VInt i
          | None -> failwith "bad int")
      | 'f' -> (
          match float_of_string_opt (payload ()) with
          | Some f -> V.VFloat f
          | None -> failwith "bad float")
      | 'b' -> (
          match payload () with
          | "true" -> V.VBool true
          | "false" -> V.VBool false
          | _ -> failwith "bad bool")
      | 'd' -> (
          match int_of_string_opt (payload ()) with
          | Some d -> V.VDate d
          | None -> failwith "bad date")
      | 's' -> V.VStr (unescape (payload ()))
      | _ -> failwith "bad value tag"

  let decode_values s =
    Array.of_list (List.map decode_value (String.split_on_char '|' s))

  let int_field s =
    match int_of_string_opt s with Some i -> i | None -> failwith "bad int"

  let parse_request line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "HELLO"; id ] -> W.Hello (unescape id)
    | [ "BEGIN" ] -> W.Begin
    | [ "GET"; t; tid; attr ] ->
        W.Get { table = unescape t; tid = int_field tid; attr = int_field attr }
    | [ "SET"; t; tid; attr; v ] ->
        W.Set
          {
            table = unescape t;
            tid = int_field tid;
            attr = int_field attr;
            value = decode_value v;
          }
    | [ "INSERT"; t; vs ] ->
        W.Insert { table = unescape t; values = decode_values vs }
    | [ "ROWS"; t ] -> W.Rows (unescape t)
    | [ "SUM"; t; attr ] -> W.Sum { table = unescape t; attr = int_field attr }
    | [ "COMMIT" ] -> W.Commit None
    | [ "COMMIT"; token ] -> W.Commit (Some (unescape token))
    | [ "ABORT" ] -> W.Abort
    | [ "PING" ] -> W.Ping
    | [ "QUIT" ] -> W.Quit
    | _ -> failwith "bad request"

  let parse_reply line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "OK" ] -> W.Ok_ ""
    | [ "OK"; detail ] -> W.Ok_ (unescape detail)
    | [ "VAL"; v ] -> W.Val (decode_value v)
    | "ERR" :: tag :: rest ->
        W.Err { tag; msg = unescape (String.concat " " rest) }
    | _ -> failwith "bad reply"
end

let test_backoff_deterministic () =
  let b1 = Txn.Backoff.create ~seed:9 () in
  let b2 = Txn.Backoff.create ~seed:9 () in
  let d1 = List.init 8 (fun _ -> Txn.Backoff.next_delay b1) in
  let d2 = List.init 8 (fun _ -> Txn.Backoff.next_delay b2) in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" d1 d2;
  List.iter
    (fun d ->
      Alcotest.(check bool) "within [0, cap]" true (d >= 0.0 && d <= 0.05))
    d1;
  Alcotest.(check int) "attempts counted" 8 (Txn.Backoff.attempts b1);
  Txn.Backoff.reset b1;
  Alcotest.(check int) "reset zeroes attempts" 0 (Txn.Backoff.attempts b1)

(* ------------------------------------------------------------------ *)
(* Pinned fuzz corpus                                                 *)
(* ------------------------------------------------------------------ *)

(* The minimal write-write conflict: two clients increment the same cell
   concurrently; first-committer-wins must abort exactly one of them, and
   the serial oracle must agree with the surviving history.  Pinned so the
   conflict path of the fuzz axis never silently stops being exercised. *)
let pinned_ww_conflict : Fuzz.Txn_fuzz.case =
  {
    Fuzz.Txn_fuzz.seed = -1;
    cols = 1;
    init = [| [| 0 |] |];
    clients =
      [|
        [| { Fuzz.Txn_fuzz.ops = [ Fuzz.Txn_fuzz.Add { tid = 0; attr = 0; delta = 1 } ];
             commits = true } |];
        [| { Fuzz.Txn_fuzz.ops = [ Fuzz.Txn_fuzz.Add { tid = 0; attr = 0; delta = 1 } ];
             commits = true } |];
      |];
    (* both begin before either commits: a conflict is forced *)
    schedule = [| 0; 1; 0; 1 |];
  }

let test_pinned_conflict_case () =
  let conflicts_before =
    Obs.Metrics.counter_value (Obs.Metrics.counter "mrdb_txn_conflicts_total")
  in
  let divs = Fuzz.Txn_fuzz.run_case pinned_ww_conflict in
  Alcotest.(check int) "no divergences" 0 (List.length divs);
  let conflicts_after =
    Obs.Metrics.counter_value (Obs.Metrics.counter "mrdb_txn_conflicts_total")
  in
  Alcotest.(check bool) "the conflict actually happened" true
    (conflicts_after = conflicts_before + 1)

let test_fuzz_seed_42 () =
  (* the acceptance seed's first case, as a fast regression canary *)
  let divs = Fuzz.Txn_fuzz.run_case (Fuzz.Txn_fuzz.gen_case 42) in
  Alcotest.(check int) "seed 42 clean" 0 (List.length divs)

(* ------------------------------------------------------------------ *)
(* Chaos: crash-point × interleaving recovery matrix                  *)
(* ------------------------------------------------------------------ *)

type cop = CGet of int * int | CAdd of int * int * int | CPut of int * int * int
         | CIns of int array

(* Two clients, two transactions each.  Client 1's first transaction
   writes the same cell as client 0's first, so interleavings where both
   are in flight produce a real conflict-abort inside the matrix. *)
let chaos_progs =
  [|
    [| [ CGet (0, 1); CAdd (0, 1, 5); CIns [| 4; 40 |] ]; [ CPut (2, 1, 7) ] |];
    [| [ CPut (0, 1, 99) ]; [ CGet (1, 1); CAdd (1, 1, 1) ] |];
  |]

(* micro-steps: client 0 = (3+1)+(1+1) = 6, client 1 = (1+1)+(2+1) = 5 *)
let chaos_schedules =
  [
    ("serial-01", [| 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1 |]);
    ("serial-10", [| 1; 1; 1; 1; 1; 0; 0; 0; 0; 0; 0 |]);
    ("alternate-0", [| 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0 |]);
    ("alternate-1", [| 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 0 |]);
    ("burst-mix", [| 0; 0; 1; 0; 0; 1; 1; 0; 0; 1; 1 |]);
    ("late-start", [| 1; 0; 0; 0; 1; 0; 0; 1; 1; 0; 1 |]);
  ]

(* Run the two-client script against [env] under [schedule], recording
   (step, digest, points-passed) after every durable boundary.  Raises
   [F.Crash] mid-way when the env's plan says so. *)
let run_chaos env schedule =
  let cat = Catalog.create () in
  let marks = ref [ ("empty", Snapshot.digest cat, 0) ] in
  let mark step =
    marks := (step, Snapshot.digest cat, F.points env) :: !marks
  in
  let d = D.attach env cat in
  Catalog.in_txn cat (fun () ->
      ignore (Catalog.add cat schema_b (Layout.row schema_b));
      Storage.Write.apply cat
        (Storage.Write.Load
           {
             table = "b";
             rows =
               Array.init 4 (fun row -> [| V.VInt row; V.VInt (10 * row) |]);
           }));
  mark "load";
  let mgr = M.create cat in
  let cur = Array.make 2 None in
  let ops = Array.make 2 [] in
  let idx = Array.make 2 0 in
  Array.iter
    (fun ci ->
      if idx.(ci) < Array.length chaos_progs.(ci) then begin
        (match cur.(ci) with
        | None ->
            cur.(ci) <- Some (M.begin_ mgr);
            ops.(ci) <- chaos_progs.(ci).(idx.(ci))
        | Some _ -> ());
        let txn = Option.get cur.(ci) in
        match ops.(ci) with
        | op :: rest -> (
            ops.(ci) <- rest;
            match op with
            | CGet (tid, attr) -> ignore (M.read txn "b" tid attr)
            | CAdd (tid, attr, d) ->
                let v = vint (M.read txn "b" tid attr) in
                M.update txn "b" tid attr (V.VInt (v + d))
            | CPut (tid, attr, v) -> M.update txn "b" tid attr (V.VInt v)
            | CIns row ->
                M.insert txn "b" (Array.map (fun v -> V.VInt v) row))
        | [] ->
            (match M.commit txn with
            | _ -> mark (Printf.sprintf "c%dt%d" ci idx.(ci))
            | exception Errors.Txn_conflict _ -> ());
            cur.(ci) <- None;
            idx.(ci) <- idx.(ci) + 1
      end)
    schedule;
  D.detach d;
  List.rev !marks

let digest_index marks dg =
  let best = ref (-1) in
  List.iteri (fun i (_, d, _) -> if d = dg then best := i) marks;
  !best

let recover_digest env =
  F.set_plan env F.Reliable;
  let r = Recover.run env in
  (Snapshot.digest r.Recover.cat, r)

let test_chaos_matrix () =
  List.iter
    (fun (sname, schedule) ->
      let dry = F.memory () in
      let marks = run_chaos dry schedule in
      let total = F.points dry in
      Alcotest.(check bool)
        (sname ^ ": commits pass crash points")
        true (total > 15);
      List.iter
        (fun torn ->
          for point = 1 to total do
            let env = F.memory ~plan:(F.Crash_at { point; torn }) () in
            (match run_chaos env schedule with
            | _ ->
                Alcotest.failf "%s point %d torn %.1f: expected a crash" sname
                  point torn
            | exception F.Crash _ -> ());
            let dg, r = recover_digest env in
            let i = digest_index marks dg in
            if i < 0 then
              Alcotest.failf
                "%s point %d torn %.1f: recovered state matches no committed \
                 prefix (warnings: %s)"
                sname point torn
                (String.concat " | " r.Recover.warnings);
            (* commits whose crash points all predate this crash were fully
               flushed — recovery must be at least that recent *)
            let floor = ref 0 in
            List.iteri
              (fun j (_, _, pts) -> if pts < point && j > !floor then floor := j)
              marks;
            if i < !floor then
              Alcotest.failf
                "%s point %d torn %.1f: recovered %S but %S was already \
                 durable"
                sname point torn
                (let s, _, _ = List.nth marks i in
                 s)
                (let s, _, _ = List.nth marks !floor in
                 s)
          done)
        [ 0.0; 1.0 ])
    chaos_schedules

(* Satellite: the commit path's crash points are named, so pinned seeds
   survive insertion of new points elsewhere.  Pin the exact name set and
   the pre/post pairing. *)
let test_named_points_stable () =
  let env = F.memory () in
  let marks = run_chaos env (List.assoc "serial-01" chaos_schedules) in
  let named = F.named_points env in
  let names = List.map fst named in
  Alcotest.(check (list string)) "stable point names"
    [ "create:snapshot.tmp"; "create:wal"; "flush:snapshot.tmp"; "flush:wal";
      "rename:snapshot"; "txn.post_commit"; "txn.pre_commit";
      "write:snapshot.tmp"; "write:wal" ]
    names;
  let count n = List.assoc n named in
  Alcotest.(check int) "pre/post commit pair up"
    (count "txn.pre_commit") (count "txn.post_commit");
  (* every mark after "empty" is exactly one framed, flushed WAL unit:
     the initial load plus each scheduled transaction that committed *)
  Alcotest.(check int) "one pre-commit per durable commit"
    (List.length marks - 1)
    (count "txn.pre_commit");
  Alcotest.(check int) "wal created once" 1 (count "create:wal");
  Alcotest.(check int) "one flush per framed txn" (count "txn.pre_commit")
    (count "flush:wal")

let test_commit_boundary_recovery () =
  let serial = List.assoc "serial-01" chaos_schedules in
  let dry = F.memory () in
  let marks = run_chaos dry serial in
  let digest_of step =
    let _, dg, _ = List.find (fun (s, _, _) -> s = step) marks in
    dg
  in
  (* crash before the first MVCC commit's WAL commit record: only the load
     is durable *)
  let env = F.memory ~plan:(F.At_point { name = "txn.pre_commit"; nth = 2; torn = 0.0 }) () in
  (match run_chaos env serial with
  | _ -> Alcotest.fail "expected crash at txn.pre_commit#2"
  | exception F.Crash _ -> ());
  let dg, _ = recover_digest env in
  Alcotest.(check string) "pre-commit crash loses the in-flight txn"
    (digest_of "load") dg;
  (* crash right after the flush: the same commit must now survive *)
  let env = F.memory ~plan:(F.At_point { name = "txn.post_commit"; nth = 2; torn = 0.0 }) () in
  (match run_chaos env serial with
  | _ -> Alcotest.fail "expected crash at txn.post_commit#2"
  | exception F.Crash _ -> ());
  let dg, _ = recover_digest env in
  Alcotest.(check string) "post-commit crash keeps the committed txn"
    (digest_of "c0t0") dg

(* ------------------------------------------------------------------ *)
(* The server over real sockets                                       *)
(* ------------------------------------------------------------------ *)

let sock_ctr = ref 0

let with_server ?(max_clients = 4) ?txn_timeout cat f =
  let mgr = M.create cat in
  let srv = S.create ~max_clients ?txn_timeout mgr in
  incr sock_ctr;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb-test-%d-%d.sock" (Unix.getpid ()) !sock_ctr)
  in
  let fd = S.listen_unix path in
  let dom = Domain.spawn (fun () -> S.accept_loop srv fd) in
  Fun.protect
    ~finally:(fun () ->
      S.stop srv;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      S.poke path;
      Domain.join dom;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f mgr (Txn.Client.Unix_sock path))

let str_schema =
  Schema.make "s" [ ("id", V.Int); ("name", V.Varchar 12) ]

let test_server_roundtrip () =
  let cat = small_cat () in
  let rel = Catalog.add cat str_schema (Layout.row str_schema) in
  ignore (Relation.append rel [| V.VInt 0; V.VStr "plain" |]);
  with_server cat (fun _mgr addr ->
      let c = Txn.Client.connect ~id:"rt" addr in
      Txn.Client.begin_ c;
      Alcotest.(check int) "GET" 20
        (vint (Txn.Client.get c ~table:"b" ~tid:2 ~attr:1));
      Txn.Client.set c ~table:"b" ~tid:2 ~attr:1 (V.VInt 21);
      Txn.Client.set c ~table:"s" ~tid:0 ~attr:1 (V.VStr "a b|c% \xc3\xa9");
      Txn.Client.insert c ~table:"b" [| V.VInt 4; V.VInt 40 |];
      let ts = Txn.Client.commit c in
      Alcotest.(check bool) "commit ts assigned" true (ts > 0);
      Txn.Client.begin_ c;
      Alcotest.(check int) "committed SET visible" 21
        (vint (Txn.Client.get c ~table:"b" ~tid:2 ~attr:1));
      (match Txn.Client.get c ~table:"s" ~tid:0 ~attr:1 with
      | V.VStr s ->
          Alcotest.(check string) "string survives the wire" "a b|c% \xc3\xa9" s
      | v -> Alcotest.failf "expected VStr, got %s" (V.to_display v));
      Alcotest.(check int) "ROWS sees the insert" 5 (Txn.Client.rows c "b");
      Alcotest.(check int) "SUM over the snapshot" (0 + 10 + 21 + 30 + 40)
        (vint (Txn.Client.sum c ~table:"b" ~attr:1));
      Txn.Client.abort c;
      Txn.Client.ping c;
      Txn.Client.close c)

let test_server_conflict () =
  with_server (small_cat ()) (fun _mgr addr ->
      let c1 = Txn.Client.connect ~id:"w1" addr in
      let c2 = Txn.Client.connect ~id:"w2" addr in
      Txn.Client.begin_ c1;
      Txn.Client.begin_ c2;
      Txn.Client.set c1 ~table:"b" ~tid:0 ~attr:1 (V.VInt 1);
      Txn.Client.set c2 ~table:"b" ~tid:0 ~attr:1 (V.VInt 2);
      ignore (Txn.Client.commit c1);
      (match Txn.Client.commit c2 with
      | _ -> Alcotest.fail "second committer must get CONFLICT"
      | exception Errors.Txn_conflict _ -> ());
      Txn.Client.close c1;
      Txn.Client.close c2)

let test_server_busy () =
  with_server ~max_clients:1 (small_cat ()) (fun _mgr addr ->
      let c1 = Txn.Client.connect ~id:"only" addr in
      (match Txn.Client.connect ~id:"extra" addr with
      | c ->
          Txn.Client.close c;
          Alcotest.fail "admission gate must shed the second client"
      | exception Errors.Server_busy _ -> ());
      Txn.Client.close c1;
      (* shedding replies BUSY and closes; it must not count as active, so
         after the first client leaves a new one gets in *)
      Unix.sleepf 0.05;
      let c3 = Txn.Client.connect ~id:"after" addr in
      Txn.Client.ping c3;
      Txn.Client.close c3)

let test_server_timeout () =
  with_server ~txn_timeout:0.02 (small_cat ()) (fun _mgr addr ->
      let c = Txn.Client.connect ~id:"slow" addr in
      Txn.Client.begin_ c;
      Unix.sleepf 0.06;
      (match Txn.Client.get c ~table:"b" ~tid:0 ~attr:1 with
      | _ -> Alcotest.fail "expired transaction must get TIMEOUT"
      | exception Errors.Txn_timeout _ -> ());
      Txn.Client.close c)

let test_server_idempotent_commit () =
  (* raw wire session: re-sending a committed token must replay the cached
     reply, not re-apply the transaction *)
  with_server (small_cat ()) (fun mgr addr ->
      let path = match addr with Txn.Client.Unix_sock p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let ask line =
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic
      in
      ignore (ask "HELLO idem");
      ignore (ask "BEGIN");
      ignore (ask "SET b 0 1 i:5");
      let r1 = ask "COMMIT idem#1" in
      Alcotest.(check bool) "commit applied" true
        (String.length r1 > 3 && String.sub r1 0 3 = "OK ");
      let r2 = ask "COMMIT idem#1" in
      Alcotest.(check string) "duplicate token replays the original reply" r1 r2;
      close_out_noerr oc;
      M.snapshot mgr (fun s ->
          Alcotest.(check int) "applied exactly once" 5 (vint (M.read s "b" 0 1))))

(* ------------------------------------------------------------------ *)
(* The pipelined protocol                                             *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_pipeline_error_at_next_read () =
  with_server (small_cat ()) (fun _mgr addr ->
      let c = Txn.Client.connect ~id:"pipe" addr in
      Txn.Client.begin_ c;
      (* row 100 is outside the snapshot: the SET returns at once and its
         error arrives with the next call that waits *)
      Txn.Client.set c ~table:"b" ~tid:100 ~attr:1 (V.VInt 1);
      (match Txn.Client.get c ~table:"b" ~tid:0 ~attr:1 with
      | _ -> Alcotest.fail "the failed SET must raise at the next GET"
      | exception Errors.Bad_request msg ->
          Alcotest.(check bool) "the SET's error, not the GET's" true
            (contains msg "Mvcc.update"));
      Txn.Client.ping c;
      Txn.Client.close c)

let test_pipeline_commit_behind_failed_write () =
  with_server (small_cat ()) (fun mgr addr ->
      let c = Txn.Client.connect ~id:"pipe" addr in
      List.iter
        (fun (what, bad_write) ->
          Txn.Client.begin_ c;
          Txn.Client.set c ~table:"b" ~tid:0 ~attr:1 (V.VInt 99);
          bad_write c;
          Txn.Client.insert c ~table:"b" [| V.VInt 4; V.VInt 40 |];
          (match Txn.Client.commit c with
          | _ -> Alcotest.failf "COMMIT behind a failed %s must raise" what
          | exception Errors.Bad_request msg ->
              Alcotest.(check bool)
                (what ^ "'s error is raised first") true
                (contains msg ("Mvcc." ^ what)));
          M.snapshot mgr (fun s ->
              Alcotest.(check int) (what ^ ": SET not applied") 0
                (vint (M.read s "b" 0 1));
              Alcotest.(check int) (what ^ ": INSERT not applied") 4
                (M.visible_rows s "b")))
        [
          ("update", fun c -> Txn.Client.set c ~table:"b" ~tid:100 ~attr:1 (V.VInt 1));
          ("insert", fun c -> Txn.Client.insert c ~table:"b" [| V.VInt 1 |]);
        ];
      Txn.Client.ping c;
      Txn.Client.close c)

(* A write that does not fit its attribute is refused when it is buffered:
   the writer gets BAD_REQUEST and loses only its own transaction, and the
   manager keeps serving every other client. *)
let test_server_bad_write_refused () =
  with_server (small_cat ()) (fun mgr addr ->
      let bad = Txn.Client.connect ~id:"bad" addr in
      let good = Txn.Client.connect ~id:"good" addr in
      Fun.protect
        ~finally:(fun () ->
          Txn.Client.close bad;
          Txn.Client.close good)
        (fun () ->
          List.iteri
            (fun k (what, write) ->
              Txn.Client.begin_ bad;
              write bad;
              (match Txn.Client.commit bad with
              | _ -> Alcotest.failf "%s: COMMIT behind it must raise" what
              | exception Errors.Bad_request _ -> ());
              Txn.Client.begin_ good;
              Txn.Client.set good ~table:"b" ~tid:1 ~attr:1 (V.VInt (100 + k));
              Alcotest.(check bool)
                (what ^ ": another client commits") true
                (Txn.Client.commit good > 0))
            [
              ( "attribute out of range",
                fun c -> Txn.Client.set c ~table:"b" ~tid:0 ~attr:9 (V.VInt 5)
              );
              ( "string into int",
                fun c ->
                  Txn.Client.set c ~table:"b" ~tid:0 ~attr:1 (V.VStr "x") );
              ( "NULL into non-nullable",
                fun c -> Txn.Client.set c ~table:"b" ~tid:0 ~attr:1 V.Null );
              ( "INSERT of a string into int",
                fun c ->
                  Txn.Client.insert c ~table:"b" [| V.VStr "x"; V.VInt 1 |] );
            ];
          M.snapshot mgr (fun s ->
              Alcotest.(check int) "last good commit applied" 103
                (vint (M.read s "b" 1 1));
              Alcotest.(check int) "no bad SET applied" 0
                (vint (M.read s "b" 0 1));
              Alcotest.(check int) "no bad INSERT applied" 4
                (M.visible_rows s "b"))))

(* A write that fit when it was buffered can stop fitting before COMMIT:
   here a dictionary column, which stores any non-NULL value, is re-encoded
   plain, which takes only numbers.  The commit is refused whole, the
   transaction aborts, and the manager keeps serving. *)
let test_commit_refusal_keeps_serving () =
  let schema = Schema.make "d" [ ("id", V.Int); ("v", V.Int) ] in
  let cat = Catalog.create () in
  let rel =
    Catalog.add ~encodings:[ (1, Storage.Encoding.Dict) ] cat schema
      (Layout.row schema)
  in
  ignore (Relation.append rel [| V.VInt 0; V.VInt 1 |]);
  let mgr = M.create cat in
  let txn = M.begin_ mgr in
  M.update txn "d" 0 1 (V.VStr "x");
  Catalog.set_physical cat "d" [];
  (match M.commit txn with
  | _ -> Alcotest.fail "a write that no longer fits must be refused"
  | exception Errors.Bad_request _ -> ());
  ignore (M.run mgr (fun t -> M.update t "d" 0 1 (V.VInt 2)));
  M.snapshot mgr (fun s ->
      Alcotest.(check int) "a later commit applies" 2 (vint (M.read s "d" 0 1)))

let test_pipeline_bulk_insert () =
  let n = 20_000 in
  with_server (small_cat ()) (fun mgr addr ->
      let c = Txn.Client.connect ~id:"bulk" addr in
      let round_trips =
        Obs.Metrics.counter "mrdb_client_round_trips_total"
      in
      let rt0 = Obs.Metrics.counter_value round_trips in
      Txn.Client.begin_ c;
      for i = 0 to n - 1 do
        Txn.Client.insert c ~table:"b" [| V.VInt (4 + i); V.VInt i |]
      done;
      ignore (Txn.Client.commit c);
      Txn.Client.close c;
      Alcotest.(check bool) "the client waits once per max_pending writes" true
        (Obs.Metrics.counter_value round_trips - rt0
         >= n / Txn.Client.max_pending);
      M.snapshot mgr (fun s ->
          Alcotest.(check int) "every row visible" (4 + n) (M.visible_rows s "b");
          Alcotest.(check int) "last row intact" (n - 1)
            (vint (M.read s "b" (3 + n) 1))))

(* A relay between a client and a real server.  Connection [k] forwards
   request lines and their replies one by one until [close_on.(k)] holds
   for a request line, which is not forwarded: both sides are closed
   instead.  Returns, per connection, the request lines it forwarded. *)
let with_relay server_addr close_on f =
  incr sock_ctr;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb-relay-%d-%d.sock" (Unix.getpid ()) !sock_ctr)
  in
  let lfd = S.listen_unix path in
  let log = Array.make (Array.length close_on) [] in
  let serve k fd =
    let server_path =
      match server_addr with Txn.Client.Unix_sock p -> p | _ -> assert false
    in
    let up = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect up (Unix.ADDR_UNIX server_path);
    let from_client = Txn.Wire.reader fd and from_server = Txn.Wire.reader up in
    let send fd line =
      let s = line ^ "\n" in
      ignore (Unix.write_substring fd s 0 (String.length s))
    in
    let rec loop () =
      match Txn.Wire.read_line from_client with
      | exception (End_of_file | Unix.Unix_error _) -> ()
      | line when close_on.(k) line -> ()
      | line ->
          log.(k) <- line :: log.(k);
          send up line;
          if line <> "QUIT" then begin
            send fd (Txn.Wire.read_line from_server);
            loop ()
          end
    in
    Fun.protect
      ~finally:(fun () ->
        Unix.close up;
        Unix.close fd)
      loop
  in
  let relay =
    Domain.spawn (fun () ->
        Array.iteri (fun k _ -> serve k (fst (Unix.accept lfd))) close_on)
  in
  Fun.protect
    ~finally:(fun () ->
      (* connections the test never made, so the relay can finish *)
      Array.iter (fun _ -> S.poke path) close_on;
      Domain.join relay;
      Unix.close lfd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f (Txn.Client.Unix_sock path));
  Array.map List.rev log

let test_pipeline_dead_connection () =
  let never _ = false in
  List.iter
    (fun (call, trigger) ->
      with_server (small_cat ()) (fun mgr addr ->
          let log =
            with_relay addr [| String.starts_with ~prefix:trigger; never |]
              (fun relay ->
                let c = Txn.Client.connect ~id:"dead" relay in
                Txn.Client.begin_ c;
                Txn.Client.set c ~table:"b" ~tid:0 ~attr:1 (V.VInt 99);
                Txn.Client.insert c ~table:"b" [| V.VInt 4; V.VInt 40 |];
                (match call c with
                | () -> Alcotest.failf "%s after lost writes must raise" trigger
                | exception Failure _ when trigger = "GET" -> ()
                | exception Errors.Bad_request _ when trigger = "COMMIT" ->
                    (* the re-sent token finds no transaction *)
                    ());
                Txn.Client.ping c;
                Txn.Client.close c)
          in
          (* the COMMIT token alone may be re-sent: it applies nothing new *)
          Alcotest.(check (list string))
            (trigger ^ ": nothing of the lost transaction is replayed")
            ([ "HELLO dead" ]
            @ (if trigger = "COMMIT" then [ "COMMIT dead#1" ] else [])
            @ [ "PING"; "QUIT" ])
            log.(1);
          M.snapshot mgr (fun s ->
              Alcotest.(check int) (trigger ^ ": SET not applied") 0
                (vint (M.read s "b" 0 1));
              Alcotest.(check int) (trigger ^ ": INSERT not applied") 4
                (M.visible_rows s "b"))))
    [
      ((fun c -> ignore (Txn.Client.get c ~table:"b" ~tid:1 ~attr:1)), "GET");
      ((fun c -> ignore (Txn.Client.commit c)), "COMMIT");
    ]

let test_server_line_cap () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_server (small_cat ()) (fun _mgr addr ->
      let path = match addr with Txn.Client.Unix_sock p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* 2 MiB without a newline; the server stops reading at the cap *)
      let flood = String.make (2 lsl 20) 'x' in
      let writer =
        Domain.spawn (fun () ->
            try ignore (Unix.write_substring fd flood 0 (String.length flood))
            with Unix.Unix_error _ -> ())
      in
      let r = Txn.Wire.reader fd in
      (match Txn.Wire.exn_of_reply (Txn.Wire.parse_reply (Txn.Wire.read_line r)) with
      | Some (Errors.Bad_request _) -> ()
      | _ -> Alcotest.fail "an over-long line must get ERR BAD_REQUEST");
      (match Txn.Wire.read_line r with
      | _ -> Alcotest.fail "the connection must be closed after the error"
      | exception (End_of_file | Unix.Unix_error _) -> ());
      Domain.join writer;
      Unix.close fd;
      let c = Txn.Client.connect ~id:"next" addr in
      Txn.Client.begin_ c;
      Alcotest.(check int) "a second client is served" 10
        (vint (Txn.Client.get c ~table:"b" ~tid:1 ~attr:1));
      Txn.Client.close c)

(* Every request that needs a transaction, sent without BEGIN, answers ERR
   BAD_REQUEST, and the same session then commits a normal transaction. *)
let test_server_no_txn_bad_request () =
  with_server (small_cat ()) (fun mgr addr ->
      let path =
        match addr with Txn.Client.Unix_sock p -> p | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let r = Txn.Wire.reader fd in
      let ask req =
        let s = Txn.Wire.encode_request req ^ "\n" in
        ignore (Unix.write_substring fd s 0 (String.length s));
        Txn.Wire.parse_reply (Txn.Wire.read_line r)
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter
            (fun (what, req) ->
              match ask req with
              | Txn.Wire.Err { tag = "BAD_REQUEST"; _ } -> ()
              | reply ->
                  Alcotest.failf "%s without BEGIN answered %s" what
                    (Txn.Wire.encode_reply reply))
            [
              ("GET", Txn.Wire.Get { table = "b"; tid = 0; attr = 1 });
              ( "SET",
                Txn.Wire.Set
                  { table = "b"; tid = 0; attr = 1; value = V.VInt 7 } );
              ( "INSERT",
                Txn.Wire.Insert
                  { table = "b"; values = [| V.VInt 9; V.VInt 90 |] } );
              ("ROWS", Txn.Wire.Rows "b");
              ("SUM", Txn.Wire.Sum { table = "b"; attr = 1 });
              ("COMMIT", Txn.Wire.Commit None);
              ("COMMIT with a token", Txn.Wire.Commit (Some "anon#1"));
            ];
          let ok what = function
            | Txn.Wire.Ok_ _ -> ()
            | reply ->
                Alcotest.failf "%s answered %s" what
                  (Txn.Wire.encode_reply reply)
          in
          ok "BEGIN" (ask Txn.Wire.Begin);
          ok "SET"
            (ask
               (Txn.Wire.Set
                  { table = "b"; tid = 2; attr = 1; value = V.VInt 77 }));
          ok "COMMIT" (ask (Txn.Wire.Commit None)));
      M.snapshot mgr (fun s ->
          Alcotest.(check int) "the committed SET applied" 77
            (vint (M.read s "b" 2 1));
          Alcotest.(check int) "no refused SET applied" 0
            (vint (M.read s "b" 0 1));
          Alcotest.(check int) "no refused INSERT applied" 4
            (M.visible_rows s "b")))

(* ------------------------------------------------------------------ *)
(* Advisor repartition racing live transactions                       *)
(* ------------------------------------------------------------------ *)

(* The layout advisor physically moves a table while a transaction is
   mid-flight with an uncommitted write and a pre-repartition snapshot.
   MVCC is logical (cells are table/tid/attr), so the move must be
   invisible: the snapshot still reads old values, own writes survive, the
   commit lands in the new layout, and the catalog digest is unchanged by
   the reorganization itself. *)
let test_advisor_repartition_races_mvcc () =
  let cat = small_cat ~rows:16 () in
  let mgr = M.create cat in
  let t1 = M.begin_ mgr in
  M.update t1 "b" 0 1 (V.VInt 777);
  (* uncommitted write and live snapshot; now the advisor repartitions,
     driven by a sum-over-v mix that makes splitting v out profitable *)
  let dump () =
    let rel = Catalog.find cat "b" in
    List.init (Relation.nrows rel) (fun tid -> Relation.get_tuple rel tid)
  in
  let before = dump () in
  let narrow =
    Relalg.Planner.plan cat
      (Relalg.Plan.Group_by
         {
           child = Relalg.Plan.Scan "b";
           keys = [];
           aggs = [ Relalg.Aggregate.(make Sum ~expr:(Relalg.Expr.Col 1) "s") ];
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
  Alcotest.(check bool) "advisor repartitioned mid-transaction" true
    (!repartitions > 0);
  Alcotest.(check bool) "layout actually decomposed" true
    (Storage.Layout.n_partitions (Relation.layout (Catalog.find cat "b")) > 1);
  Alcotest.(check bool) "repartition preserves committed contents" true
    (dump () = before);
  (* the in-flight transaction is oblivious to the physical move *)
  Alcotest.(check int) "own write survives the move" 777
    (vint (M.read t1 "b" 0 1));
  Alcotest.(check int) "snapshot read through the new layout" 10
    (vint (M.read t1 "b" 1 1));
  ignore (M.commit t1);
  M.snapshot mgr (fun s ->
      Alcotest.(check int) "commit applied through the new layout" 777
        (vint (M.read s "b" 0 1)));
  (* and a transaction that began before the move conflicts normally *)
  let t2 = M.begin_ mgr in
  let t3 = M.begin_ mgr in
  M.update t2 "b" 2 1 (V.VInt 1);
  M.update t3 "b" 2 1 (V.VInt 2);
  ignore (M.commit t2);
  match M.commit t3 with
  | _ -> Alcotest.fail "second committer must still conflict after the move"
  | exception Errors.Txn_conflict _ -> ()

(* ------------------------------------------------------------------ *)

(* Reads out of range are the client's error: GET of a row or an
   attribute the table does not have, and SUM of a missing or non-numeric
   column, answer BAD_REQUEST (a typed [Errors.Bad_request] at the
   client), and the session and its transaction go on. *)
let test_server_out_of_range_reads () =
  let cat = small_cat () in
  let rel = Catalog.add cat str_schema (Layout.row str_schema) in
  ignore (Relation.append rel [| V.VInt 0; V.VStr "plain" |]);
  with_server cat (fun _mgr addr ->
      let c = Txn.Client.connect ~id:"oob" addr in
      Fun.protect
        ~finally:(fun () -> Txn.Client.close c)
        (fun () ->
          Txn.Client.begin_ c;
          List.iter
            (fun (what, read) ->
              match read c with
              | _ -> Alcotest.failf "%s: expected BAD_REQUEST" what
              | exception Errors.Bad_request _ -> ())
            [
              ("GET past the last row", Txn.Client.get ~table:"b" ~tid:99 ~attr:1);
              ("GET of row -1", Txn.Client.get ~table:"b" ~tid:(-1) ~attr:1);
              ("GET past the last attribute", Txn.Client.get ~table:"b" ~tid:0 ~attr:99);
              ("GET of attribute -1", Txn.Client.get ~table:"b" ~tid:0 ~attr:(-1));
              ("SUM past the last attribute", Txn.Client.sum ~table:"b" ~attr:9);
              ("SUM over a varchar", Txn.Client.sum ~table:"s" ~attr:1);
            ];
          Alcotest.(check int) "GET after the refusals" 20
            (vint (Txn.Client.get c ~table:"b" ~tid:2 ~attr:1));
          Alcotest.(check int) "SUM after the refusals" 60
            (vint (Txn.Client.sum c ~table:"b" ~attr:1));
          Alcotest.(check bool) "the transaction commits" true
            (Txn.Client.commit c > 0)))

(* After a stop, a session idle in read(2) ends at once: the accept loop
   returns without waiting for its client to hang up, and the session's
   open transaction is aborted.  A watchdog makes the test fail, not
   hang, where the loop waits for the client. *)
let test_server_stop_ends_idle_sessions () =
  let srv = S.create (M.create (small_cat ())) in
  incr sock_ctr;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb-test-%d-%d.sock" (Unix.getpid ()) !sock_ctr)
  in
  let fd = S.listen_unix path in
  let returned = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        S.accept_loop srv fd;
        Atomic.set returned true)
  in
  let active = Obs.Metrics.gauge "mrdb_txn_active" in
  let before = Obs.Metrics.gauge_value active in
  let c = Txn.Client.connect ~id:"idle" (Txn.Client.Unix_sock path) in
  Txn.Client.begin_ c;
  S.stop srv;
  S.poke path;
  let deadline = Unix.gettimeofday () +. 1.0 in
  while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let ended = Atomic.get returned in
  (* a loop still waiting ends once the client hangs up *)
  Txn.Client.close c;
  Domain.join dom;
  Unix.close fd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "the accept loop returns within a second" true ended;
  Alcotest.(check (float 0.0)) "the idle session's transaction is aborted"
    before
    (Obs.Metrics.gauge_value active)

(* An expired transaction holds no versions back: its next operation
   raises [Txn_timeout] before any read, so commits behind it free what
   they replace.  The horizon lag says why versions are held: above 0
   while a snapshot that has not expired is open, 0 once it ends. *)
let test_expired_txn_does_not_pin () =
  let mgr = M.create (small_cat ()) in
  let lag = Obs.Metrics.gauge "mrdb_txn_horizon_lag" in
  let idle = M.begin_ ~timeout:0.0 mgr in
  Unix.sleepf 0.01;
  for i = 1 to 1000 do
    M.run mgr (fun txn -> M.update txn "b" (i mod 4) 1 (V.VInt i))
  done;
  Alcotest.(check int) "no version kept for the expired transaction" 0
    (M.retained_versions mgr);
  (match M.read idle "b" 0 1 with
  | _ -> Alcotest.fail "the expired transaction must refuse to read"
  | exception Errors.Txn_timeout _ -> ());
  let reader = M.begin_ mgr in
  M.run mgr (fun txn -> M.update txn "b" 0 1 (V.VInt 0));
  Alcotest.(check bool) "lag above 0 while a snapshot is open" true
    (Obs.Metrics.gauge_value lag > 0.);
  Alcotest.(check int) "the open snapshot still reads its value" 1000
    (vint (M.read reader "b" 0 1));
  M.abort reader;
  M.run mgr (fun txn -> M.update txn "b" 1 1 (V.VInt 0));
  Alcotest.(check (float 0.)) "lag 0 once it ends" 0.
    (Obs.Metrics.gauge_value lag)

(* The same through the server: a client that sends BEGIN and then idles
   past its deadline does not make another client's commits keep what
   they replace. *)
let test_server_expired_idle_does_not_pin () =
  with_server ~txn_timeout:0.05 (small_cat ()) (fun mgr addr ->
      let idle = Txn.Client.connect ~id:"idle" addr in
      Txn.Client.begin_ idle;
      Unix.sleepf 0.1;
      let c = Txn.Client.connect ~id:"busy" addr in
      for i = 1 to 200 do
        let src = i mod 4 and dst = (i + 1) mod 4 in
        Txn.Client.begin_ c;
        let sb = vint (Txn.Client.get c ~table:"b" ~tid:src ~attr:1) in
        let db = vint (Txn.Client.get c ~table:"b" ~tid:dst ~attr:1) in
        Txn.Client.set c ~table:"b" ~tid:src ~attr:1 (V.VInt (sb - 1));
        Txn.Client.set c ~table:"b" ~tid:dst ~attr:1 (V.VInt (db + 1));
        ignore (Txn.Client.commit c)
      done;
      Alcotest.(check int) "no version kept for the idle transaction" 0
        (M.retained_versions mgr);
      Txn.Client.close c;
      Txn.Client.close idle)

(* The commit after a long-held snapshot ends frees at most two queued
   commits beyond its own, so the backlog drains over the commits that
   follow it instead of in one. *)
let test_held_snapshot_spreads_frees () =
  let mgr = M.create (small_cat ()) in
  let reader = M.begin_ mgr in
  for i = 1 to 2000 do
    M.run mgr (fun txn -> M.update txn "b" (i mod 4) 1 (V.VInt i))
  done;
  Alcotest.(check int) "every version held" 2000 (M.retained_versions mgr);
  M.abort reader;
  M.run mgr (fun txn -> M.update txn "b" 0 1 (V.VInt 0));
  Alcotest.(check int) "the next commit frees three commits" 1998
    (M.retained_versions mgr);
  for i = 1 to 999 do
    M.run mgr (fun txn -> M.update txn "b" (i mod 4) 1 (V.VInt i))
  done;
  Alcotest.(check int) "999 commits later the backlog is gone" 0
    (M.retained_versions mgr)

(* More clients than the runtime allows domains (128): every session is
   served.  Each socket gives up reading after 5 s, so a session that
   never starts fails the test instead of hanging it. *)
let test_server_many_clients () =
  let n = 140 in
  with_server ~max_clients:n (small_cat ()) (fun _mgr addr ->
      let path =
        match addr with Txn.Client.Unix_sock p -> p | _ -> assert false
      in
      let conns =
        Array.init n (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
            Unix.connect fd (Unix.ADDR_UNIX path);
            (fd, Txn.Wire.reader fd))
      in
      let send fd line =
        let b = Bytes.of_string (line ^ "\n") in
        ignore (Unix.write fd b 0 (Bytes.length b))
      in
      let reply (_, r) =
        match Txn.Wire.read_line r with
        | line -> line
        | exception Unix.Unix_error (e, _, _) ->
            Alcotest.failf "no reply within 5 s (%s)" (Unix.error_message e)
      in
      Array.iter (fun (fd, _) -> send fd "PING") conns;
      Array.iteri
        (fun i c ->
          Alcotest.(check string) (Printf.sprintf "client %d served" i) "OK"
            (reply c))
        conns;
      let ((fd, _) as c) = conns.(n - 1) in
      send fd "BEGIN";
      Alcotest.(check string) "BEGIN" "OK 0" (reply c);
      send fd "GET b 2 1";
      Alcotest.(check string) "GET" "VAL i:20" (reply c);
      send fd "COMMIT";
      Alcotest.(check string) "COMMIT" "OK 1" (reply c);
      Array.iter (fun (fd, _) -> Unix.close fd) conns)

(* Line mutations for the decoder property: the forms the in-place
   decoders must read exactly as the split-based ones did, or refuse. *)
let tricky_fields =
  [ "+5"; "-5"; "0x10"; "0u12"; "0o17"; "0b101"; "1_000"; "1_"; "-0"; "007";
    "-"; "+"; ""; "123456789012345678"; "-123456789012345678";
    "1234567890123456789"; "-1234567890123456789"; "9999999999999999999";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "99999999999999999999999"; "i:+5"; "i:0x10";
    "d:0u12"; "i:1_000"; "i:-0"; "i:007"; "i:1234567890123456789";
    "i:9999999999999999999"; "i:4611686018427387904";
    "d:-4611686018427387905"; "i:"; "d:"; "f:"; "b:"; "s:"; "i:-"; "d:+";
    "b:tru"; "b:TRUE"; "f:1."; "f:0x1p3"; "f:nan"; "f:-inf"; "null"; "nul";
    "NULL"; "x:1"; "i1"; "s:%"; "s:a%"; "s:%4"; "s:%1_"; "s:%_1"; "s:%zz";
    "s:%41%4a"; "%"; "a%"; "%1_"; "%7C"; "%2"; "i:1|"; "|i:1"; "i:1||i:2";
    "i:1|d:2|s:x" ]

let tricky_verbs =
  [ "GET"; "SET"; "INSERT"; "ROWS"; "SUM"; "HELLO"; "BEGIN"; "COMMIT";
    "ABORT"; "PING"; "QUIT"; "OK"; "VAL"; "ERR"; "get"; "GETS"; "G"; "OKAY";
    "ER"; "VALUE"; "" ]

let blanks = [ " "; "\t"; "  "; " \t"; "\t "; "\r"; "\n"; "\012" ]

(* One mutation, on the fields [line] splits into at a space or a '|'. *)
let mutate line =
  let open QCheck.Gen in
  oneofl [ ' '; ' '; '|' ] >>= fun sep ->
  let fs = String.split_on_char sep line in
  let n = List.length fs in
  let join = String.concat (String.make 1 sep) in
  let set i x = join (List.mapi (fun j f -> if j = i then x else f) fs) in
  let field = int_bound (n - 1) in
  oneof
    [
      map (fun i -> set i (List.nth fs i ^ String.make 1 sep)) field;
      map (fun b -> b ^ line) (oneofl blanks);
      map (fun b -> line ^ b) (oneofl blanks);
      map2 (fun i b -> set i (List.nth fs i ^ b)) field (oneofl blanks);
      map (fun i -> set i "") field;
      map2 (fun i x -> set i x) field (oneofl tricky_fields);
      map (fun v -> set 0 v) (oneofl tricky_verbs);
      map2
        (fun i x -> set i (List.nth fs i ^ x))
        field
        (oneofl [ "%"; "%1_"; "%4"; "%_"; "%%" ]);
      map (fun k -> String.sub line 0 k) (int_bound (String.length line));
      map (fun x -> line ^ String.make 1 sep ^ x) (oneofl tricky_fields);
      map (fun i -> join (List.filteri (fun j _ -> j <> i) fs)) field;
    ]

let gen_decoder_line =
  let open QCheck.Gen in
  let rec muts k line =
    if k = 0 then return line else mutate line >>= muts (k - 1)
  in
  oneof
    [
      map Txn.Wire.encode_request gen_wire_request;
      map Txn.Wire.encode_reply gen_wire_reply;
      map Txn.Wire.encode_value gen_wire_value;
      map Txn.Wire.encode_values (array_size (int_range 1 4) gen_wire_value);
      oneofl tricky_fields;
    ]
  >>= fun line -> int_bound 3 >>= fun k -> muts k line

(* [decode] gives what [oracle] gives, by value and by its encoding, or
   both refuse, [decode] with Bad_request. *)
let agrees ~oracle ~decode ~encode line =
  match oracle line with
  | expected -> (
      match decode line with
      | got -> compare got expected = 0 && encode got = encode expected
      | exception e ->
          QCheck.Test.fail_reportf
            "%S: the oracle reads it, the decoder raises %s" line
            (Printexc.to_string e))
  | exception _ -> (
      match decode line with
      | _ -> QCheck.Test.fail_reportf "%S: accepted, the oracle refuses it" line
      | exception Errors.Bad_request _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%S: refused with %s, not Bad_request" line
            (Printexc.to_string e))

(* One end of a socket pair, and a reader on the other kept across the
   property's lines, as a session keeps its reader across its requests:
   a table name a line repeats comes from the reader's names. *)
let decoder_link =
  lazy
    (let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     (a, Txn.Wire.reader b))

(* [line] decoded as the server decodes a request: sent down the socket
   pair and read back with [Wire.read_request].  A line holding a newline
   is two lines on the wire, so it is decoded in place instead. *)
let read_request_back line =
  if String.contains line '\n' then Txn.Wire.parse_request line
  else
    let fd, r = Lazy.force decoder_link in
    let b = Bytes.of_string (line ^ "\n") in
    let rec send off =
      if off < Bytes.length b then
        send (off + Unix.write fd b off (Bytes.length b - off))
    in
    send 0;
    Txn.Wire.read_request r

let qcheck_wire_decoders_match_split =
  QCheck.Test.make ~count:5000
    ~name:"in-place decoders agree with the split-based ones"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_decoder_line)
    (fun line ->
      let module W = Txn.Wire in
      agrees ~oracle:Split_wire.parse_request ~decode:W.parse_request
        ~encode:W.encode_request line
      && agrees ~oracle:Split_wire.parse_request ~decode:read_request_back
           ~encode:W.encode_request line
      && agrees ~oracle:Split_wire.parse_reply ~decode:W.parse_reply
           ~encode:W.encode_reply line
      && agrees ~oracle:Split_wire.decode_value ~decode:W.decode_value
           ~encode:W.encode_value line
      && agrees ~oracle:Split_wire.decode_values ~decode:W.decode_values
           ~encode:W.encode_values line)

let suite =
  [
    Alcotest.test_case "snapshot isolation across commits" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "read own writes; abort discards" `Quick
      test_read_own_writes;
    Alcotest.test_case "first committer wins" `Quick test_first_committer_wins;
    Alcotest.test_case "write skew permitted (SI boundary)" `Quick
      test_write_skew_permitted;
    Alcotest.test_case "insert visibility is a snapshot prefix" `Quick
      test_insert_visibility;
    Alcotest.test_case "timeout aborts and is never retried" `Quick
      test_timeout_not_retried;
    Alcotest.test_case "retry loop survives conflicts" `Quick
      test_run_retries_conflicts;
    Alcotest.test_case "gc prunes undo versions" `Quick test_gc_prunes_versions;
    Alcotest.test_case "error taxonomy: exit codes, wire tags, diagnostics"
      `Quick test_error_taxonomy;
    Alcotest.test_case "wire protocol round-trips" `Quick test_wire_roundtrip;
    Alcotest.test_case "backoff is deterministic and bounded" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "pinned corpus: write-write conflict" `Quick
      test_pinned_conflict_case;
    Alcotest.test_case "fuzz seed 42 replays clean" `Quick test_fuzz_seed_42;
    Alcotest.test_case "crash-point x interleaving recovery matrix" `Slow
      test_chaos_matrix;
    Alcotest.test_case "commit crash points are named and stable" `Quick
      test_named_points_stable;
    Alcotest.test_case "pre/post commit boundary recovery" `Quick
      test_commit_boundary_recovery;
    Alcotest.test_case "server: socket round-trip" `Quick test_server_roundtrip;
    Alcotest.test_case "server: conflict surfaces typed" `Quick
      test_server_conflict;
    Alcotest.test_case "server: admission gate sheds with BUSY" `Quick
      test_server_busy;
    Alcotest.test_case "server: per-txn timeout" `Quick test_server_timeout;
    Alcotest.test_case "server: idempotent commit token" `Quick
      test_server_idempotent_commit;
    Alcotest.test_case "server: over-long line gets BAD_REQUEST" `Quick
      test_server_line_cap;
    QCheck_alcotest.to_alcotest qcheck_wire_printf_free;
    Alcotest.test_case "pipeline: write error raised at the next read" `Quick
      test_pipeline_error_at_next_read;
    Alcotest.test_case "pipeline: commit behind a failed write" `Quick
      test_pipeline_commit_behind_failed_write;
    Alcotest.test_case "server: a bad write is refused, not poisoning" `Quick
      test_server_bad_write_refused;
    Alcotest.test_case "commit refused whole keeps the manager serving" `Quick
      test_commit_refusal_keeps_serving;
    Alcotest.test_case "pipeline: 20k inserts in one transaction" `Quick
      test_pipeline_bulk_insert;
    Alcotest.test_case "pipeline: dead connection with writes pending" `Quick
      test_pipeline_dead_connection;
    Alcotest.test_case "advisor repartition races live transactions" `Quick
      test_advisor_repartition_races_mvcc;
    Alcotest.test_case "server: request without BEGIN gets BAD_REQUEST" `Quick
      test_server_no_txn_bad_request;
    Alcotest.test_case "server: out-of-range GET and SUM get BAD_REQUEST" `Quick
      test_server_out_of_range_reads;
    Alcotest.test_case "server: stop ends idle sessions" `Quick
      test_server_stop_ends_idle_sessions;
    QCheck_alcotest.to_alcotest qcheck_wire_decoders_match_split;
    Alcotest.test_case "mvcc: an expired transaction does not pin the horizon"
      `Quick test_expired_txn_does_not_pin;
    Alcotest.test_case
      "server: an expired idle transaction does not pin the horizon" `Quick
      test_server_expired_idle_does_not_pin;
    Alcotest.test_case "mvcc: releasing a long-held snapshot spreads its frees"
      `Quick test_held_snapshot_spreads_frees;
    Alcotest.test_case "server: 140 concurrent clients are all served" `Quick
      test_server_many_clients;
  ]
