type point = {
  region_bytes : int;
  cycles_per_access : float;
  accesses : int;
}

(* Region sizes: powers of two from 1 KiB to 32 MiB, four times the
   Nehalem L3. *)
let sizes =
  let rec go acc s =
    if s > 32 * 1024 * 1024 then List.rev acc else go (s :: acc) (s * 2)
  in
  go [] 1024

let measure hier ~base ~region_bytes ~accesses ~order =
  Hierarchy.reset hier;
  let n = region_bytes / 8 in
  (* warm-up pass over the whole region so that the measured pass observes
     steady-state behaviour (hits when the region fits a level, capacity
     misses when it does not) *)
  for i = 0 to n - 1 do
    Hierarchy.read hier ~addr:(base + (order n i * 8)) ~width:8
  done;
  Hierarchy.reset_stats hier;
  for i = 0 to accesses - 1 do
    let slot = order n i in
    Hierarchy.read hier ~addr:(base + (slot * 8)) ~width:8
  done;
  let s = Hierarchy.stats hier in
  {
    region_bytes;
    cycles_per_access = float_of_int s.Stats.mem_cycles /. float_of_int accesses;
    accesses;
  }

let run ~order ?(accesses = 200_000) params =
  let hier = Hierarchy.create ~params () in
  List.map
    (fun region_bytes ->
      measure hier ~base:0 ~region_bytes ~accesses ~order:(order region_bytes))
    sizes

let run_random ?accesses params =
  let order region_bytes =
    let n = region_bytes / 8 in
    let rng = Mrdb_util.Rng.create (0x5EED + region_bytes) in
    let perm = Mrdb_util.Rng.permutation rng n in
    fun _n i -> perm.(i mod n)
  in
  run ~order ?accesses params

let run_sequential ?accesses params =
  let order _region_bytes = fun n i -> i mod n in
  run ~order ?accesses params

(* Pick, for each level, the measured point whose region is half the level's
   capacity (fits entirely), and attribute the increase over the previous
   plateau to this level's latency. *)
let fit_latencies (params : Params.t) points =
  let value_at bytes =
    let best =
      List.fold_left
        (fun acc p ->
          match acc with
          | None -> Some p
          | Some q ->
              if
                abs (p.region_bytes - bytes) < abs (q.region_bytes - bytes)
              then Some p
              else Some q)
        None points
    in
    match best with Some p -> p.cycles_per_access | None -> 0.0
  in
  let plateaus =
    Array.to_list
      (Array.map
         (fun (l : Params.level) -> (l.name, value_at (l.capacity / 2)))
         params.levels)
  in
  let deepest = List.fold_left (fun acc p -> max acc p.region_bytes) 0 points in
  let plateaus = plateaus @ [ ("Memory", value_at deepest) ] in
  let rec diffs prev = function
    | [] -> []
    | (name, v) :: rest ->
        (name, int_of_float (Float.round (v -. prev))) :: diffs v rest
  in
  match plateaus with
  | (name, v) :: rest ->
      (name, int_of_float (Float.round v)) :: diffs v rest
  | [] -> []
