module Value = Storage.Value
module Aggregate = Relalg.Aggregate

type result = { columns : string array; rows : Value.t array list }

let pp_result ppf r =
  Format.fprintf ppf "%s@." (String.concat " | " (Array.to_list r.columns));
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@."
        (String.concat " | "
           (Array.to_list (Array.map Value.to_display row))))
    r.rows

let concat_results = function
  | [] -> invalid_arg "Runtime.concat_results: no results"
  | first :: _ as results ->
      List.iter
        (fun r ->
          if r.columns <> first.columns then
            invalid_arg "Runtime.concat_results: column mismatch")
        results;
      {
        columns = first.columns;
        rows = List.concat_map (fun r -> r.rows) results;
      }

let charge hier n =
  match hier with Some h -> Memsim.Hierarchy.add_cpu h n | None -> ()

(* Recognize a predicate conjunct of the shape [Col c <op> rhs] with [rhs]
   column-free and integer-valued, over a plain non-nullable int column of
   [rel]: engines can then evaluate it on unboxed ints read in runs.
   [Value.compare] on any mix of [VInt]/[VDate] is plain int comparison, so
   the unboxed test is exact. *)
let simple_int_cmp ~params rel conj =
  let module Expr = Relalg.Expr in
  match conj with
  | Expr.Cmp (op, Expr.Col c, rhs)
    when Expr.cols rhs = [] && Storage.Relation.int_run_readable rel c -> (
      match Expr.eval rhs ~params (fun _ -> assert false) with
      | Value.VInt r | Value.VDate r ->
          let test : int -> bool =
            match op with
            | Expr.Eq -> fun v -> v = r
            | Expr.Ne -> fun v -> v <> r
            | Expr.Lt -> fun v -> v < r
            | Expr.Le -> fun v -> v <= r
            | Expr.Gt -> fun v -> v > r
            | Expr.Ge -> fun v -> v >= r
          in
          Some (c, test)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Execution directly on compressed partitions                         *)
(* ------------------------------------------------------------------ *)

(* A predicate whose only column is [c]: evaluating it against a candidate
   value of that column is exact for any conjunct shape. *)
let single_col_pred ~params conj =
  let module Expr = Relalg.Expr in
  match Expr.cols conj with
  | [ c ] ->
      let vtest v =
        Expr.truthy
          (Expr.eval conj ~params (fun col ->
               if col = c then v else Value.Null))
      in
      Some (c, vtest)
  | _ -> None

let box_of rel c =
  match (Storage.Schema.attr (Storage.Relation.schema rel) c).Storage.Schema.ty
  with
  | Value.Date -> fun v -> Value.VDate v
  | _ -> fun v -> Value.VInt v

(* Range pruning against the widen-only FOR bounds: the bounds are a
   superset of the live values, so both the all-pass and the none-pass
   verdicts are sound. *)
let prune_for op r (fmin, fmax) =
  let module Expr = Relalg.Expr in
  match (op : Expr.cmp) with
  | Expr.Lt -> if fmax < r then `All else if fmin >= r then `None else `Scan
  | Expr.Le -> if fmax <= r then `All else if fmin > r then `None else `Scan
  | Expr.Gt -> if fmin > r then `All else if fmax <= r then `None else `Scan
  | Expr.Ge -> if fmin >= r then `All else if fmax < r then `None else `Scan
  | Expr.Eq ->
      if fmin = r && fmax = r then `All
      else if r < fmin || r > fmax then `None
      else `Scan
  | Expr.Ne ->
      if r < fmin || r > fmax then `All
      else if fmin = r && fmax = r then `None
      else `Scan

let int_cmp_shape ~params conj =
  let module Expr = Relalg.Expr in
  match conj with
  | Expr.Cmp (op, Expr.Col c, rhs) when Expr.cols rhs = [] -> (
      match Expr.eval rhs ~params (fun _ -> assert false) with
      | Value.VInt r | Value.VDate r -> Some (c, op, r)
      | _ -> None)
  | _ -> None

let scan_block = 1024

(* Evaluate a single-column predicate directly on the column's compressed
   representation during a full scan, emitting maximal ranges of surviving
   tids (ascending, view-relative).  The third emission argument carries the
   column's value when the whole range is known to share it (RLE runs), so
   callers can pre-populate row caches.  Returns [None] when the column is
   not stored in a scannable compressed form — callers fall back to their
   generic (decode-per-tuple) paths. *)
let compressed_filter_range ?hier ~params ~per_value rel conj =
  let module Relation = Storage.Relation in
  match single_col_pred ~params conj with
  | None -> None
  | Some (c, vtest) ->
      if Relation.rle_readable rel c then
        Some
          ( c,
            fun emit ->
              (* one boxed predicate evaluation per maximal run.  The row
                 count is read per invocation: a prepared pipeline re-runs
                 this scan over a resliced morsel view. *)
              let n = Relation.nrows rel in
              if n > 0 then
                Relation.iter_rle_runs rel ~lo:0 ~count:n c
                  (fun ~lo ~len v ->
                    charge hier per_value;
                    if vtest v then emit ~lo ~len (Some v)) )
      else if not (Relation.code_run_readable rel c) then None
      else if Relation.encoding rel c = Storage.Encoding.Dict then
        Some
          ( c,
            fun emit ->
              let n = Relation.nrows rel in
              (* predicate once per distinct value, then a narrow code scan *)
              let pass =
                Array.map
                  (fun v ->
                    charge hier per_value;
                    vtest v)
                  (Relation.dict_values rel c)
              in
              let codes = Array.make scan_block 0 in
              let rs = ref (-1) in
              let flush hi =
                if !rs >= 0 then begin
                  emit ~lo:!rs ~len:(hi - !rs) None;
                  rs := -1
                end
              in
              let lo = ref 0 in
              while !lo < n do
                let m = min scan_block (n - !lo) in
                Relation.read_code_run rel ~lo:!lo ~count:m c codes;
                charge hier (per_value * m);
                for i = 0 to m - 1 do
                  let tid = !lo + i in
                  if Array.unsafe_get pass (Array.unsafe_get codes i) then begin
                    if !rs < 0 then rs := tid
                  end
                  else flush tid
                done;
                lo := !lo + m
              done;
              flush n )
      else
        match Relation.for_escape rel c with
        | None -> None
        | Some esc ->
            let box = box_of rel c in
            let verdict =
              match (int_cmp_shape ~params conj, Relation.for_bounds rel c)
              with
              | Some (_, op, r), Some bounds -> prune_for op r bounds
              | _ -> `Scan
            in
            Some
              ( c,
                fun emit ->
                  let n = Relation.nrows rel in
                  charge hier per_value;
                  match verdict with
                  | `All -> if n > 0 then emit ~lo:0 ~len:n None
                  | `None -> ()
                  | `Scan ->
                      let codes = Array.make scan_block 0 in
                      let rs = ref (-1) in
                      let flush hi =
                        if !rs >= 0 then begin
                          emit ~lo:!rs ~len:(hi - !rs) None;
                          rs := -1
                        end
                      in
                      let lo = ref 0 in
                      while !lo < n do
                        let m = min scan_block (n - !lo) in
                        Relation.read_code_run rel ~lo:!lo ~count:m c codes;
                        charge hier (per_value * m);
                        for i = 0 to m - 1 do
                          let tid = !lo + i in
                          let z = Array.unsafe_get codes i in
                          let v =
                            if z = esc then
                              Relation.for_exception_value rel c tid
                            else Relation.decode_for_code rel c z
                          in
                          if vtest (box v) then begin
                            if !rs < 0 then rs := tid
                          end
                          else flush tid
                        done;
                        lo := !lo + m
                      done;
                      flush n )

(* Point-wise variant for position-list inputs: test one tid against the
   compressed representation (narrow code read plus bitmap test or decode)
   without fetching through the generic accessor. *)
let compressed_tid_test ?hier ~params ~per_value rel conj =
  let module Relation = Storage.Relation in
  match single_col_pred ~params conj with
  | None -> None
  | Some (c, vtest) ->
      if not (Relation.code_run_readable rel c) then None
      else if Relation.encoding rel c = Storage.Encoding.Dict then
        let pass =
          lazy
            (Array.map
               (fun v ->
                 charge hier per_value;
                 vtest v)
               (Relation.dict_values rel c))
        in
        Some
          (fun tid -> (Lazy.force pass).(Relation.read_code rel tid c))
      else
        match Relation.for_escape rel c with
        | None -> None
        | Some esc ->
            let box = box_of rel c in
            Some
              (fun tid ->
                let z = Relation.read_code rel tid c in
                let v =
                  if z = esc then Relation.for_exception_value rel c tid
                  else Relation.decode_for_code rel c z
                in
                vtest (box v))

module Sim_hash = struct
  (* The host table is flat parallel arrays with one entry per [add] or per
     distinct [find_or_add] key: the key fold, the key, the value, and a link
     to the next entry of the same host bucket, newest first (-1 ends a
     chain).  Entry [i] is the [i]th inserted, so [0 .. count-1] is
     insertion order.  The host buckets are sized with the host capacity,
     which [clear] keeps; only [touch] reaches the simulator, at the
     simulated slot of the fold, so the simulated side ([slots], [base],
     [count]) is the same whatever the host structure. *)
  type 'v t = {
    hier : Memsim.Hierarchy.t option;
    arena : Storage.Arena.t;
    entry_width : int;
    touch_width : int; (* bytes one touch reads or writes *)
    mutable folds : int array;
    mutable keys : Value.t list array;
    mutable values : 'v array; (* grown by [set_value], so it may lag *)
    mutable next : int array;
    mutable heads : int array; (* host bucket -> newest entry or -1 *)
    mutable matches : int array; (* stack of [iter_matches] *)
    mutable top : int;
    mutable base : int;
    mutable slots : int; (* simulated; always a power of two *)
    mutable count : int;
  }

  let initial_slots = 64

  (* Host room for [capacity] entries, a power of two from 16 to 2^17: a
     larger table grows as it fills. *)
  let host_capacity capacity =
    let rec up n = if n >= capacity || n >= 1 lsl 17 then n else up (2 * n) in
    up 16

  let create ?hier ?(capacity = 0) arena ~entry_width () =
    let n = host_capacity capacity in
    {
      hier;
      arena;
      entry_width;
      touch_width = (if entry_width < 64 then entry_width else 64);
      folds = Array.make n 0;
      keys = Array.make n [];
      values = [||];
      next = Array.make n (-1);
      heads = Array.make n (-1);
      matches = Array.make 16 0;
      top = 0;
      base = Storage.Arena.alloc arena (initial_slots * 16);
      slots = initial_slots;
      count = 0;
    }

  let key_hash key = Storage.Hash_index.key_of_values key

  (* The host bucket of a fold: the mix only spreads the fold's bits (a
     float fold's low bits are often all zero). *)
  let bucket t h =
    let x = (h lxor (h lsr 31)) * 0x9E3779B97F4A7C1 in
    (x lxor (x lsr 29)) land (Array.length t.heads - 1)

  let touch t ~write h =
    match t.hier with
    | Some hier ->
        (* slots is a power of two, so masking equals the modulo *)
        let slot = h land (t.slots - 1) in
        let addr = t.base + (slot * t.entry_width) in
        Memsim.Hierarchy.add_cpu hier Cpu_model.hash_op;
        if write then Memsim.Hierarchy.write hier ~addr ~width:t.touch_width
        else Memsim.Hierarchy.read hier ~addr ~width:t.touch_width
    | None -> ()

  let clear t =
    for i = 0 to t.count - 1 do
      t.heads.(bucket t t.folds.(i)) <- -1
    done;
    t.top <- 0;
    t.count <- 0;
    t.slots <- initial_slots

  (* The simulated table doubles when more than half full, at a fresh
     arena region. *)
  let maybe_grow t =
    if 2 * t.count > t.slots then begin
      t.slots <- t.slots * 2;
      t.base <- Storage.Arena.alloc t.arena (t.slots * t.entry_width)
    end

  let widen a n fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Append entry [count] for [key] and link it at the head of its bucket;
     untraced.  Full arrays double, and the buckets are relinked in entry
     order, which leaves every chain newest first. *)
  let push t h key =
    let i = t.count in
    if i = Array.length t.folds then begin
      let n = 2 * i in
      t.folds <- widen t.folds n 0;
      t.keys <- widen t.keys n [];
      t.next <- widen t.next n (-1);
      t.heads <- Array.make n (-1);
      for j = 0 to i - 1 do
        let b = bucket t t.folds.(j) in
        t.next.(j) <- t.heads.(b);
        t.heads.(b) <- j
      done
    end;
    let b = bucket t h in
    t.folds.(i) <- h;
    t.keys.(i) <- key;
    t.next.(i) <- t.heads.(b);
    t.heads.(b) <- i;
    t.count <- i + 1;
    i

  let set_value t i v =
    if i < Array.length t.values then t.values.(i) <- v
    else t.values <- widen t.values (Array.length t.folds) v

  let value t i = t.values.(i)

  let add_folded t h key v =
    maybe_grow t;
    touch t ~write:true h;
    set_value t (push t h key) v

  let add t ~key v = add_folded t (key_hash key) key v

  (* A one-column int key folds to itself, so an int-keyed entry keeps the
     key list [[]] and its fold is its key: an int probe of fold [k] passes
     [[]] too, which every int-keyed entry's list equals. *)
  let add_int t k v = add_folded t k [] v

  (* [compare a b = 0] on key lists, as [List.assoc] decides it, without
     the polymorphic compare: NaN equals itself, [0.] equals [-0.], and
     values of different constructors ([VInt 1], [VDate 1]) differ. *)
  let rec same_key a b =
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> (
        match ((x : Value.t), (y : Value.t)) with
        | Null, Null -> same_key a b
        | VInt x, VInt y | VDate x, VDate y -> x = y && same_key a b
        | VFloat x, VFloat y ->
            (x = y || (x <> x && y <> y)) && same_key a b
        | VBool x, VBool y -> x = y && same_key a b
        | VStr x, VStr y -> String.equal x y && same_key a b
        | _ -> false)
    | _ -> false

  let rec equal_key a b =
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> Value.equal x y && equal_key a b
    | _ -> false

  let iter_folded t h key f =
    touch t ~write:false h;
    let bottom = t.top in
    let i = ref t.heads.(bucket t h) in
    while !i >= 0 do
      let e = !i in
      if t.folds.(e) = h && equal_key t.keys.(e) key then begin
        if t.top = Array.length t.matches then
          t.matches <- widen t.matches (2 * t.top) 0;
        t.matches.(t.top) <- e;
        t.top <- t.top + 1
      end;
      i := t.next.(e)
    done;
    (* the chain is newest first, so the oldest match is on top; a probe
       that [f] makes pushes above this one's matches *)
    for j = t.top - 1 downto bottom do
      f t.values.(t.matches.(j))
    done;
    t.top <- bottom

  let iter_matches t ~key f = iter_folded t (key_hash key) key f
  let iter_matches_int t k f = iter_folded t k [] f

  let find_or_add_folded t h key =
    touch t ~write:false h;
    touch t ~write:true h;
    let i = ref t.heads.(bucket t h) in
    while !i >= 0 && not (t.folds.(!i) = h && same_key t.keys.(!i) key) do
      i := t.next.(!i)
    done;
    if !i >= 0 then !i
    else begin
      maybe_grow t;
      lnot (push t h key)
    end

  let find_or_add t ~key = find_or_add_folded t (key_hash key) key
  let find_or_add_int t k = find_or_add_folded t k []

  (* The simulated traffic of a {!find_or_add} that finds its key — one
     probe-read and one write-back of the entry — without the host lookup,
     for a caller that already knows the entry: the global aggregate's one
     group, and a group a groupjoin's build entry remembers. *)
  let retouch t ~hash =
    touch t ~write:false hash;
    touch t ~write:true hash

  let iter t f =
    for i = 0 to t.count - 1 do
      f t.keys.(i) t.values.(i)
    done

  let fold t i = t.folds.(i)
  let length t = t.count
end

module Agg_table = struct
  type t = {
    aggs : Aggregate.t list;
    agg_arr : Aggregate.t array;
    table : Aggregate.state array Sim_hash.t;
    global : bool;
    empty_hash : int; (* hash of the empty key, precomputed *)
    mutable saw_row : bool;
    mutable gslot : int;
        (* the one group of an all-rows aggregate once it exists, so the
           per-row path skips the host lookup (traffic unchanged) *)
  }

  let create ?hier ?capacity arena ~aggs ?(global = false) ~key_width () =
    let entry_width = key_width + (16 * List.length aggs) in
    {
      aggs;
      agg_arr = Array.of_list aggs;
      table =
        Sim_hash.create ?hier ?capacity arena
          ~entry_width:(max 16 entry_width) ();
      global;
      empty_hash = Sim_hash.key_hash [];
      saw_row = false;
      gslot = -1;
    }

  let clear t =
    Sim_hash.clear t.table;
    t.saw_row <- false;
    t.gslot <- -1

  let states t i = Sim_hash.value t.table i

  (* A found group, or a fresh one with initial states. *)
  let resolve t i =
    if i >= 0 then i
    else begin
      let i = lnot i in
      Sim_hash.set_value t.table i
        (Array.map (fun (a : Aggregate.t) -> Aggregate.init a.func) t.agg_arr);
      i
    end

  (* One entry lookup: one probe-read plus one write-back of traffic.  The
     empty key's group is remembered for the global-aggregate fast path,
     which makes the same two touches without the host search. *)
  let group t ~key =
    t.saw_row <- true;
    if key == [] && t.gslot >= 0 then begin
      Sim_hash.retouch t.table ~hash:t.empty_hash;
      t.gslot
    end
    else begin
      let i = resolve t (Sim_hash.find_or_add t.table ~key) in
      if key == [] then t.gslot <- i;
      i
    end

  let group_int t k =
    t.saw_row <- true;
    resolve t (Sim_hash.find_or_add_int t.table k)

  let regroup t i =
    t.saw_row <- true;
    Sim_hash.retouch t.table ~hash:(Sim_hash.fold t.table i)

  let update t ~key ~inputs =
    let states = states t (group t ~key) in
    for i = 0 to Array.length t.agg_arr - 1 do
      Aggregate.step (Array.unsafe_get states i) (Array.unsafe_get inputs i)
    done

  (* Run-granular accumulation: one entry lookup absorbs [count] identical
     rows. *)
  let update_n t ~key ~inputs ~count =
    if count > 0 then begin
      let states = states t (group t ~key) in
      for i = 0 to Array.length t.agg_arr - 1 do
        Aggregate.step_n (Array.unsafe_get states i) (Array.unsafe_get inputs i)
          count
      done
    end

  let emit t f =
    if t.global && (not t.saw_row) && Sim_hash.length t.table = 0 then begin
      (* global aggregate over the empty input: one group of initial states *)
      let states =
        Array.of_list
          (List.map (fun (a : Aggregate.t) -> Aggregate.init a.func) t.aggs)
      in
      f [] (Array.map Aggregate.finish states)
    end
    else
      Sim_hash.iter t.table (fun key states ->
          f key (Array.map Aggregate.finish states))

  let emit_int t f =
    for i = 0 to Sim_hash.length t.table - 1 do
      f (Sim_hash.fold t.table i)
        (Array.map Aggregate.finish (Sim_hash.value t.table i))
    done
end

let sort_rows ?hier arena ~row_width ~keys rows =
  let arr = Array.of_list rows in
  let n = Array.length arr in
  if n > 1 then begin
    (match hier with
    | Some h ->
        let base = Storage.Arena.alloc arena (n * row_width) in
        (* materialize the run *)
        Memsim.Hierarchy.write_run h ~addr:base ~width:(min row_width 64)
          ~count:n ~stride:row_width;
        (* n log n random touches for the comparison-based sort *)
        let log2n =
          int_of_float (Float.ceil (Float.log (float_of_int n) /. Float.log 2.0))
        in
        let rng = Mrdb_util.Rng.create (n lxor 0x50F7) in
        for _ = 1 to n * log2n do
          let i = Mrdb_util.Rng.int rng n in
          Memsim.Hierarchy.read h
            ~addr:(base + (i * row_width))
            ~width:(min row_width 64);
          Memsim.Hierarchy.add_cpu h 1
        done
    | None -> ());
    let compare_rows a b =
      let rec go = function
        | [] -> 0
        | (col, dir) :: rest ->
            let c = Value.compare a.(col) b.(col) in
            let c = match (dir : Relalg.Plan.dir) with Asc -> c | Desc -> -c in
            if c <> 0 then c else go rest
      in
      go keys
    in
    Array.stable_sort compare_rows arr
  end;
  Array.to_list arr
