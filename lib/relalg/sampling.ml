module Relation = Storage.Relation
module Catalog = Storage.Catalog

(* Tuples drawn per estimate. *)
let samples = 512

(* A deterministic pseudo-random sample.  Plain striding aliases with
   periodic data (e.g. a column holding tid mod k when the stride is a
   multiple of k), so we draw uniformly with a fixed seed instead. *)
let sample_tids n =
  if n <= samples then List.init n Fun.id
  else begin
    let rng = Mrdb_util.Rng.create (0x5A11CE + n) in
    List.init samples (fun _ -> Mrdb_util.Rng.int rng n)
  end

let selectivity cat table pred ~params =
  let rel = Catalog.find cat table in
  let n = Relation.nrows rel in
  if n = 0 then Expr.default_selectivity pred
  else
    Memsim.Hierarchy.untraced (Catalog.hier cat) (fun () ->
        let tids = sample_tids n in
        let matched =
          List.fold_left
            (fun acc tid ->
              let col i = Relation.get rel tid i in
              if Expr.truthy (Expr.eval pred ~params col) then acc + 1 else acc)
            0 tids
        in
        let total = List.length tids in
        (* clamp: a sample with zero hits still leaves the possibility of a
           few matches; use half a hit as the floor *)
        Float.max
          (0.5 /. float_of_int total)
          (float_of_int matched /. float_of_int total))

let n_distinct cat table attr =
  let rel = Catalog.find cat table in
  let n = Relation.nrows rel in
  if n = 0 then 1.0
  else
    Memsim.Hierarchy.untraced (Catalog.hier cat) (fun () ->
        let tids = sample_tids n in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun tid -> Hashtbl.replace seen (Relation.get rel tid attr) ())
          tids;
        let observed = float_of_int (Hashtbl.length seen) in
        let r = float_of_int (List.length tids) in
        (* sampling with replacement: the expected number of distinct values
           seen when drawing r times from a domain of size D follows
           Cardenas' formula D*(1-(1-1/D)^r); invert it for D by bisection *)
        let expected_seen d =
          if d <= 1.0 then 1.0 else d *. (1.0 -. ((1.0 -. (1.0 /. d)) ** r))
        in
        if observed >= r -. 0.5 then float_of_int n
        else begin
          let lo = ref observed and hi = ref (float_of_int n) in
          for _ = 1 to 60 do
            let mid = 0.5 *. (!lo +. !hi) in
            if expected_seen mid < observed then lo := mid else hi := mid
          done;
          Float.min (float_of_int n) !hi
        end)
