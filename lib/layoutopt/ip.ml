module Emit = Costmodel.Emit
module Pattern = Costmodel.Pattern
module Cost_function = Costmodel.Cost_function
module Schema = Storage.Schema

type term = {
  attrs : int list;
  weight : float;
  kind : Emit.access_kind;
  touches : int;
}

type problem = {
  n_attrs : int;
  widths : int array;
  rows : int;
  terms : term array;
  params : Memsim.Params.t;
}

type stats = { nodes_visited : int; bounds_pruned : int; evaluations : int }

let problem_of_workload ?estimate ?(params = Memsim.Params.nehalem) cat table
    workload =
  let rel = Storage.Catalog.find cat table in
  let schema = Storage.Relation.schema rel in
  let n_attrs = Schema.arity schema in
  let widths =
    Array.init n_attrs (fun i -> Schema.stored_width (Schema.attr schema i))
  in
  let rows = Storage.Relation.nrows rel in
  (* identical descriptors across queries merge by summing frequencies *)
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (plan, freq) ->
      let _, descs = Emit.emit ?estimate cat plan in
      List.iter
        (fun (d : Emit.access_desc) ->
          if String.equal d.Emit.table table && d.Emit.attrs <> [] then begin
            let attrs = List.sort_uniq compare d.Emit.attrs in
            let key = (attrs, d.Emit.kind, d.Emit.touches) in
            match Hashtbl.find_opt tbl key with
            | Some w -> Hashtbl.replace tbl key (w +. freq)
            | None -> Hashtbl.add tbl key freq
          end)
        descs)
    workload;
  let terms =
    Hashtbl.fold
      (fun (attrs, kind, touches) weight acc ->
        { attrs; weight; kind; touches } :: acc)
      tbl []
    |> List.sort compare |> Array.of_list
  in
  { n_attrs; widths; rows; terms; params }

(* One fragment touch: the term's atom over a region of [rows] items of the
   fragment tuple width, using the bytes of the attributes it reads there. *)
let atom_cost problem term ~w ~u =
  if problem.rows <= 0 then 0.0
  else
    let n = problem.rows in
    let u = min u w in
    let pat =
      match term.kind with
      | Emit.Seq -> Pattern.s_trav ~u ~n ~w ()
      | Emit.Seq_cond s -> Pattern.s_trav_cr ~u ~n ~w ~s ()
      | Emit.Rand -> Pattern.rr_acc ~u ~n ~w ~r:(max 1 term.touches) ()
    in
    Cost_function.cost problem.params pat

(* memoized per (term, fragment width, used width) — the only inputs an
   atom cost depends on once the problem is fixed *)
let make_eval problem =
  let memo : (int * int * int, float) Hashtbl.t = Hashtbl.create 512 in
  fun ti ~w ~u ->
    let key = (ti, w, u) in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
        let c = atom_cost problem problem.terms.(ti) ~w ~u in
        Hashtbl.add memo key c;
        c

let normalize parts = List.sort compare (List.map (List.sort_uniq compare) parts)

(* Same iteration order everywhere (terms outer, normalized groups inner) so
   solve and brute_force sum in the same order and produce identical
   floats. *)
let objective_with eval problem parts =
  if problem.rows <= 0 || Array.length problem.terms = 0 then 0.0
  else begin
    let groups = normalize parts in
    let group_w g = List.fold_left (fun a i -> a + problem.widths.(i)) 0 g in
    let total = ref 0.0 in
    Array.iteri
      (fun ti term ->
        List.iter
          (fun g ->
            let u =
              List.fold_left
                (fun a i ->
                  if List.mem i term.attrs then a + problem.widths.(i) else a)
                0 g
            in
            if u > 0 then total := !total +. (term.weight *. eval ti ~w:(group_w g) ~u))
          groups)
      problem.terms;
    !total
  end

let objective problem parts = objective_with (make_eval problem) problem parts

(* Admissible lower bound for a partial assignment of attributes 0..k-1:
   every term pays its touched fragments at their *current* widths (atom
   costs are monotone in both region and used width, and fragments only
   grow), and a term touching nothing yet pays at least its cheapest
   isolated attribute. *)
let lower_bound problem eval min_iso ~asgn ~k ~frag_w ~u_scratch =
  let lb = ref 0.0 in
  Array.iteri
    (fun ti term ->
      let touched = ref [] in
      List.iter
        (fun a ->
          if a < k then begin
            let f = asgn.(a) in
            if u_scratch.(f) = 0 then touched := f :: !touched;
            u_scratch.(f) <- u_scratch.(f) + problem.widths.(a)
          end)
        term.attrs;
      match !touched with
      | [] -> lb := !lb +. (term.weight *. min_iso.(ti))
      | fs ->
          List.iter
            (fun f ->
              lb := !lb +. (term.weight *. eval ti ~w:frag_w.(f) ~u:u_scratch.(f));
              u_scratch.(f) <- 0)
            fs)
    problem.terms;
  !lb

let partition_of asgn n m =
  let parts = Array.make (max 1 m) [] in
  for a = n - 1 downto 0 do
    parts.(asgn.(a)) <- a :: parts.(asgn.(a))
  done;
  Array.to_list (Array.sub parts 0 m)

(* Partitionings [solve] returns, and the search nodes it may visit. *)
let top_k = 8
let max_nodes = 200_000

let solve problem =
  let n = problem.n_attrs in
  if n = 0 then
    ([ ([], 0.0) ], { nodes_visited = 0; bounds_pruned = 0; evaluations = 0 })
  else begin
    let eval = make_eval problem in
    let nodes = ref 0 and pruned = ref 0 and evals = ref 0 in
    let best : (int list list * float) list ref = ref [] in
    let full () = List.length !best >= top_k in
    let kth_bound () =
      if full () then snd (List.nth !best (top_k - 1)) else infinity
    in
    let insert p c =
      if not (List.exists (fun (p', _) -> p' = p) !best) then begin
        best := List.merge (fun (_, a) (_, b) -> compare a b) [ (p, c) ] !best;
        if List.length !best > top_k then
          best := List.filteri (fun i _ -> i < top_k) !best
      end
    in
    let evaluate parts =
      incr evals;
      objective_with eval problem parts
    in
    (* seed with the NSM / DSM extremes: early incumbents tighten pruning *)
    let row = normalize [ List.init n Fun.id ] in
    let col = normalize (List.init n (fun i -> [ i ])) in
    insert row (evaluate row);
    insert col (evaluate col);
    let min_iso =
      Array.map
        (fun t ->
          List.fold_left
            (fun acc a ->
              Float.min acc
                (atom_cost problem t ~w:problem.widths.(a) ~u:problem.widths.(a)))
            infinity t.attrs)
        problem.terms
    in
    let asgn = Array.make n 0 in
    let frag_w = Array.make n 0 in
    let u_scratch = Array.make n 0 in
    (* restricted-growth enumeration: attr k joins fragment 0..m-1 or opens
       fragment m — every set partition visited exactly once *)
    let rec go k m =
      if !nodes < max_nodes then begin
        incr nodes;
        if k = n then begin
          let parts = normalize (partition_of asgn n m) in
          insert parts (evaluate parts)
        end
        else begin
          let lb =
            lower_bound problem eval min_iso ~asgn ~k ~frag_w ~u_scratch
          in
          if full () && lb >= kth_bound () then incr pruned
          else
            for f = 0 to m do
              asgn.(k) <- f;
              frag_w.(f) <- frag_w.(f) + problem.widths.(k);
              go (k + 1) (if f = m then m + 1 else m);
              frag_w.(f) <- frag_w.(f) - problem.widths.(k)
            done
        end
      end
    in
    go 0 0;
    ( !best,
      { nodes_visited = !nodes; bounds_pruned = !pruned; evaluations = !evals }
    )
  end

let brute_force problem =
  let n = problem.n_attrs in
  if n = 0 then ([], 0.0)
  else begin
    let eval = make_eval problem in
    let best = ref ([ List.init n Fun.id ], infinity) in
    let asgn = Array.make n 0 in
    let rec go k m =
      if k = n then begin
        let parts = normalize (partition_of asgn n m) in
        let c = objective_with eval problem parts in
        if c < snd !best then best := (parts, c)
      end
      else
        for f = 0 to m do
          asgn.(k) <- f;
          go (k + 1) (if f = m then m + 1 else m)
        done
    in
    go 0 0;
    !best
  end
