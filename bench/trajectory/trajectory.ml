module Json = Obs.Json

type point = { bench : string; metric : string; value : float; unit_ : string }
type run = { schema_version : int; commit : string; points : point list }

let schema_version = 1

let point ~bench ~metric ?(unit_ = "") value = { bench; metric; value; unit_ }

let make_run ?(commit = "") points = { schema_version; commit; points }

let point_to_json p =
  Json.Obj
    [
      ("bench", Json.Str p.bench);
      ("metric", Json.Str p.metric);
      ("value", Json.Num p.value);
      ("unit", Json.Str p.unit_);
    ]

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int r.schema_version));
      ("commit", Json.Str r.commit);
      ("points", Json.Arr (List.map point_to_json r.points));
    ]

let get_str ?(default = "") key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> default

let point_of_json j =
  match Option.bind (Json.member "value" j) Json.to_num with
  | None -> failwith "Trajectory: point without numeric value"
  | Some value ->
      {
        bench = get_str "bench" j;
        metric = get_str "metric" j;
        value;
        unit_ = get_str "unit" j;
      }

let of_json j =
  match (Json.member "schema_version" j, Json.member "points" j) with
  | Some (Json.Num v), Some (Json.Arr pts) ->
      {
        schema_version = int_of_float v;
        commit = get_str "commit" j;
        points = List.map point_of_json pts;
      }
  | _ -> failwith "Trajectory: not a trajectory run"

let save path r = Json.write_file path (to_json r)
let load path = of_json (Json.parse_file path)

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

type delta = {
  key : string;
  before : float option;
  after : float option;
  ratio : float option;
}

let key_of p = p.bench ^ "/" ^ p.metric

let index r =
  let tbl = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace tbl (key_of p) p) r.points;
  tbl

let diff ~baseline after =
  let b = index baseline and a = index after in
  let keys = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) b;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) a;
  Hashtbl.fold
    (fun k () acc ->
      let before = Option.map (fun p -> p.value) (Hashtbl.find_opt b k) in
      let after = Option.map (fun p -> p.value) (Hashtbl.find_opt a k) in
      let ratio =
        match (before, after) with
        | Some x, Some y when x <> 0. -> Some (y /. x)
        | _ -> None
      in
      { key = k; before; after; ratio } :: acc)
    keys []
  |> List.sort (fun d1 d2 -> String.compare d1.key d2.key)

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

type direction = Up_is_bad | Down_is_bad

type gate = {
  pattern : string;
  direction : direction;
  max_regress : float option;
  max_value : float option;
  min_value : float option;
}

type violation = { gate : gate; point : point; reason : string }

(* '*' matches any substring (including '/'); no other metacharacters. *)
let glob_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '*' ->
          let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | c -> si < ns && Char.equal s.[si] c && go (pi + 1) (si + 1)
  in
  go 0 0

let gates_of_json j =
  let gate_of j =
    {
      pattern = get_str "pattern" j;
      direction =
        (match get_str ~default:"up_is_bad" "direction" j with
        | "down_is_bad" -> Down_is_bad
        | _ -> Up_is_bad);
      max_regress = Option.bind (Json.member "max_regress" j) Json.to_num;
      max_value = Option.bind (Json.member "max_value" j) Json.to_num;
      min_value = Option.bind (Json.member "min_value" j) Json.to_num;
    }
  in
  match Json.member "gates" j with
  | Some (Json.Arr gs) -> List.map gate_of gs
  | _ -> failwith "Trajectory: gates file lacks a \"gates\" array"

let check ~gates ?baseline run =
  let base_tbl = Option.map index baseline in
  let violations = ref [] in
  let blame gate point reason = violations := { gate; point; reason } :: !violations in
  List.iter
    (fun p ->
      let k = key_of p in
      List.iter
        (fun g ->
          if glob_match ~pattern:g.pattern k then begin
            (match g.max_value with
            | Some m when p.value > m ->
                blame g p
                  (Printf.sprintf "value %g exceeds max_value %g" p.value m)
            | _ -> ());
            (match g.min_value with
            | Some m when p.value < m ->
                blame g p
                  (Printf.sprintf "value %g below min_value %g" p.value m)
            | _ -> ());
            match (g.max_regress, base_tbl) with
            | Some allowed, Some tbl -> (
                match Hashtbl.find_opt tbl k with
                | Some bp when bp.value <> 0. ->
                    let drift =
                      match g.direction with
                      | Up_is_bad -> (p.value -. bp.value) /. Float.abs bp.value
                      | Down_is_bad ->
                          (bp.value -. p.value) /. Float.abs bp.value
                    in
                    if drift > allowed then
                      blame g p
                        (Printf.sprintf
                           "regressed %.1f%% vs baseline %g (allowed %.1f%%)"
                           (100. *. drift) bp.value (100. *. allowed))
                | _ -> ())
            | _ -> ()
          end)
        gates)
    run.points;
  List.rev !violations
