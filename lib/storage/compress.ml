(* The compression advisor: per-column statistics, a footprint-driven scheme
   chooser, and the catalog-level entry point that applies a chosen plan and
   accounts for it in the metrics registry.

   Schemes and when they pay off (Section VII's partial-compression lever):
   - Dict:    few distinct values of a wide type — narrow fixed codes
   - Rle:     long runs of equal values (sorted / low-churn columns)
   - For_bp:  int values clustered around a base — 1/2/4-byte zigzag offsets
   - Sparse:  mostly-NULL columns — store only the filled (tid, value) pairs *)

let distinct_cap = 4096
let for_widths = [| 1; 2; 4 |]

type stat = {
  attr : int;
  rows : int;
  non_null : int;
  distinct : int;  (* capped at [distinct_cap] *)
  runs : int;
  int_only : bool;
  for_exceptions : int array;  (* per candidate code width in [for_widths] *)
}

let zig_fits ~base ~escape x =
  if x >= base then
    let d = x - base in
    d >= 0 && d <= (escape - 1) / 2
  else
    let m = base - x in
    m >= 1 && m <= (escape - 1) / 2

(* One pass per column over [col a f]-style value streams. *)
let analyze_cols schema ~rows col =
  Array.init (Schema.arity schema) (fun a ->
      let attr = Schema.attr schema a in
      let int_only =
        match attr.Schema.ty with Value.Int | Value.Date -> true | _ -> false
      in
      let seen = Hashtbl.create 64 in
      let distinct = ref 0 and non_null = ref 0 and runs = ref 0 in
      let prev = ref None in
      let base = ref None in
      let exc = Array.make (Array.length for_widths) 0 in
      col a (fun v ->
          (match !prev with
          | Some pv when Value.equal pv v -> ()
          | _ -> incr runs);
          prev := Some v;
          if not (Value.is_null v) then begin
            incr non_null;
            if !distinct < distinct_cap && not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              incr distinct
            end;
            if int_only then begin
              let x = Value.to_int v in
              let b =
                match !base with
                | Some b -> b
                | None ->
                    base := Some x;
                    x
              in
              Array.iteri
                (fun i w ->
                  let escape = (1 lsl (8 * w)) - 1 in
                  if not (zig_fits ~base:b ~escape x) then exc.(i) <- exc.(i) + 1)
                for_widths
            end
          end);
      {
        attr = a;
        rows;
        non_null = !non_null;
        distinct = !distinct;
        runs = !runs;
        int_only;
        for_exceptions = exc;
      })

let analyze rel =
  let n = Relation.nrows rel in
  analyze_cols (Relation.schema rel) ~rows:n (fun a f ->
      (* statistics gathering is setup work, untraced like loads *)
      Memsim.Hierarchy.untraced (Relation.hier rel) (fun () ->
          for tid = 0 to n - 1 do
            f (Relation.get rel tid a)
          done))

let analyze_rows schema rows =
  analyze_cols schema ~rows:(Array.length rows) (fun a f ->
      Array.iter (fun row -> f row.(a)) rows)

(* Predicted side-region entries of the column under a scheme: what
   {!Relation.side_entries} reads once the column is stored so. *)
let entries s (e : Encoding.t) =
  match e with
  | Plain -> 0
  | Dict -> s.distinct
  | Rle -> s.runs
  | Sparse -> s.non_null
  | For_bp w ->
      let i = match w with 1 -> 0 | 2 -> 1 | _ -> 2 in
      s.for_exceptions.(i)

(* Predicted storage footprint of the column under a scheme — the rule
   {!Relation.storage_bytes} stores it by. *)
let encoded_bytes schema s e =
  let attr = Schema.attr schema s.attr in
  (s.rows * Encoding.stored_width attr e)
  + (entries s e * Encoding.side_width attr e)

(* Candidate schemes legal for the column. *)
let candidates schema s =
  let attr = Schema.attr schema s.attr in
  let dict = if s.distinct < distinct_cap then [ Encoding.Dict ] else [] in
  let sparse = if attr.Schema.nullable then [ Encoding.Sparse ] else [] in
  let for_bp =
    if s.int_only && s.non_null > 0 then
      Array.to_list (Array.map (fun w -> Encoding.For_bp w) for_widths)
    else []
  in
  (Encoding.Rle :: dict) @ sparse @ for_bp

(* Pick the scheme with the smallest predicted footprint, requiring a real
   saving (< 70% of plain) before giving up plain storage. *)
let choose schema s =
  if s.rows = 0 then Encoding.Plain
  else
    let plain = encoded_bytes schema s Encoding.Plain in
    let e, b =
      List.fold_left
        (fun (be, bb) e ->
          let b = encoded_bytes schema s e in
          if b < bb then (e, b) else (be, bb))
        (Encoding.Plain, plain) (candidates schema s)
    in
    if float_of_int b < 0.7 *. float_of_int plain then e else Encoding.Plain

let plan_of_stats schema stats =
  Array.to_list stats
  |> List.filter_map (fun s ->
         match choose schema s with
         | Encoding.Plain -> None
         | e -> Some (s.attr, e))

let plan rel = plan_of_stats (Relation.schema rel) (analyze rel)
let plan_rows schema rows = plan_of_stats schema (analyze_rows schema rows)

(* Sparse/RLE attributes must be alone in their partition: split them out of
   their groups, keeping everything else where it is. *)
let singleton_layout schema layout encodings =
  let need =
    List.filter_map
      (fun (a, e) -> if Encoding.outside_partition e then Some a else None)
      encodings
    |> List.sort_uniq compare
  in
  if need = [] then layout
  else
    let keep =
      Layout.to_groups layout
      |> List.map (List.filter (fun a -> not (List.mem a need)))
      |> List.filter (fun g -> g <> [])
    in
    Layout.of_indices schema (keep @ List.map (fun a -> [ a ]) need)

(* --- metrics --------------------------------------------------------- *)

let scheme_name : Encoding.t -> string = function
  | Plain -> "plain"
  | Dict -> "dict"
  | Rle -> "rle"
  | Sparse -> "sparse"
  | For_bp _ -> "for_bp"

let bytes_counter which e =
  Obs.Metrics.counter
    (Printf.sprintf "mrdb_compress_%s_bytes_%s_total" (scheme_name e) which)
    ~help:
      (Printf.sprintf "Column bytes %s %s encoding (at apply time)" which
         (scheme_name e))

(* Actual in-arena footprint of one encoded column of [rel]. *)
let attr_encoded_bytes rel a =
  (Relation.nrows rel * Relation.field_width rel a)
  + Relation.side_entries rel a
    * Encoding.side_width
        (Schema.attr (Relation.schema rel) a)
        (Relation.encoding rel a)

(* Apply a compression plan through the catalog (splitting Sparse/RLE
   attributes into singleton partitions as required), then account for the
   achieved footprint in the metrics registry. *)
let apply cat name ?layout encodings =
  let rel = Catalog.find cat name in
  let schema = Relation.schema rel in
  let layout =
    match layout with Some l -> l | None -> Relation.layout rel
  in
  Catalog.set_physical cat name
    ~layout:(singleton_layout schema layout encodings)
    encodings;
  let rel = Catalog.find cat name in
  let n = Relation.nrows rel in
  List.iter
    (fun (a, e) ->
      let before = n * Schema.stored_width (Schema.attr schema a) in
      Obs.Metrics.add (bytes_counter "before" e) before;
      Obs.Metrics.add (bytes_counter "after" e) (attr_encoded_bytes rel a))
    (Relation.encodings rel);
  let plain_total = n * Schema.row_width schema in
  if plain_total > 0 then
    Obs.Metrics.set
      (Obs.Metrics.gauge
         ("mrdb_compress_ratio_" ^ name)
         ~help:"Stored bytes relative to plain storage for this relation")
      (float_of_int (Relation.storage_bytes rel) /. float_of_int plain_total)
