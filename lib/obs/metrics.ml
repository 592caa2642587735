(* A record of one float is stored flat, so adding to it allocates
   nothing. *)
type total = { mutable total : float }

type hist_state = {
  bounds : float array;  (* strictly increasing upper bounds, no +Inf *)
  counts : int array;  (* length = Array.length bounds + 1 (+Inf last) *)
  sum : total;
  mutable count : int;
}

type value =
  | Counter of int Atomic.t
  | Gauge of float ref
  | Histogram of hist_state

type metric = { name : string; help : string; value : value }
type counter = int Atomic.t
type gauge = float ref
type histogram = hist_state

let lock = Mutex.create ()
let registry : metric list ref = ref []  (* reverse registration order *)

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find name = List.find_opt (fun m -> String.equal m.name name) !registry

let wrong_kind name existing =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
       (kind_name existing))

let counter ?(help = "") name =
  with_lock (fun () ->
      match find name with
      | Some { value = Counter c; _ } -> c
      | Some m -> wrong_kind name m.value
      | None ->
          let c = Atomic.make 0 in
          registry := { name; help; value = Counter c } :: !registry;
          c)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge ?(help = "") name =
  with_lock (fun () ->
      match find name with
      | Some { value = Gauge g; _ } -> g
      | Some m -> wrong_kind name m.value
      | None ->
          let g = ref 0. in
          registry := { name; help; value = Gauge g } :: !registry;
          g)

(* [set] and [observe] run on every MVCC commit, so they lock without
   [with_lock], whose closure would be allocated at each call. *)
let set g v =
  Mutex.lock lock;
  (* an assignment cannot raise, so the unlock is always reached *)
  g := v;
  Mutex.unlock lock

let gauge_value g = !g

let default_buckets =
  (* 1e-6 .. ~16.8s, ×4 steps: covers microsecond timings and small counts *)
  [ 1e-6; 4e-6; 1.6e-5; 6.4e-5; 2.56e-4; 1.024e-3; 4.096e-3; 1.6384e-2;
    6.5536e-2; 0.262144; 1.048576; 4.194304; 16.777216 ]

let histogram ?(help = "") ?(buckets = default_buckets) name =
  with_lock (fun () ->
      match find name with
      | Some { value = Histogram h; _ } -> h
      | Some m -> wrong_kind name m.value
      | None ->
          let bounds = Array.of_list (List.sort_uniq compare buckets) in
          let h =
            {
              bounds;
              counts = Array.make (Array.length bounds + 1) 0;
              sum = { total = 0. };
              count = 0;
            }
          in
          registry := { name; help; value = Histogram h } :: !registry;
          h)

let record h v =
  let i = ref 0 in
  while !i < Array.length h.bounds && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum.total <- h.sum.total +. v;
  h.count <- h.count + 1

let observe h v =
  Mutex.lock lock;
  match record h v with
  | () -> Mutex.unlock lock
  | exception e ->
      (* an asynchronous exception, raised at the loop's poll point *)
      Mutex.unlock lock;
      raise e

(* Prometheus-style quantile estimate: find the bucket holding the rank
   and interpolate linearly inside it.  The open +Inf bucket extrapolates
   one more exponential step past the last finite bound. *)
let percentile h p =
  with_lock (fun () ->
      if h.count = 0 then 0.0
      else begin
        let rank = p /. 100.0 *. float_of_int h.count in
        let nb = Array.length h.bounds in
        let acc = ref 0.0 in
        let res = ref None in
        Array.iteri
          (fun i c ->
            if !res = None then begin
              let next = !acc +. float_of_int c in
              if next >= rank && c > 0 then begin
                let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
                let hi =
                  if i < nb then h.bounds.(i)
                  else if nb = 0 then 0.0
                  else h.bounds.(nb - 1) *. 4.0
                in
                let frac = (rank -. !acc) /. float_of_int c in
                res := Some (lo +. (frac *. (hi -. lo)))
              end;
              acc := next
            end)
          h.counts;
        match !res with
        | Some v -> v
        | None -> if nb = 0 then 0.0 else h.bounds.(nb - 1)
      end)

let histogram_count h = with_lock (fun () -> h.count)

let metrics_in_order () = with_lock (fun () -> List.rev !registry)

let to_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun m ->
      if m.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name m.help);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.value));
      (match m.value with
      | Counter c ->
          Buffer.add_string buf (Printf.sprintf "%s %d\n" m.name (Atomic.get c))
      | Gauge g ->
          Buffer.add_string buf (Printf.sprintf "%s %g\n" m.name !g)
      | Histogram h ->
          let cumulative = ref 0 in
          Array.iteri
            (fun i bound ->
              cumulative := !cumulative + h.counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" m.name bound
                   !cumulative))
            h.bounds;
          cumulative := !cumulative + h.counts.(Array.length h.bounds);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m.name !cumulative);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %g\n" m.name h.sum.total);
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" m.name h.count)))
    (metrics_in_order ());
  Buffer.contents buf

let to_json () =
  let metric_json m =
    let base =
      [
        ("name", Json.Str m.name);
        ("type", Json.Str (kind_name m.value));
        ("help", Json.Str m.help);
      ]
    in
    let rest =
      match m.value with
      | Counter c -> [ ("value", Json.Num (float_of_int (Atomic.get c))) ]
      | Gauge g -> [ ("value", Json.Num !g) ]
      | Histogram h ->
          let buckets =
            Array.to_list
              (Array.mapi
                 (fun i bound ->
                   Json.Obj
                     [
                       ("le", Json.Num bound);
                       ("count", Json.Num (float_of_int h.counts.(i)));
                     ])
                 h.bounds)
            @ [
                Json.Obj
                  [
                    ("le", Json.Str "+Inf");
                    ( "count",
                      Json.Num
                        (float_of_int h.counts.(Array.length h.bounds)) );
                  ];
              ]
          in
          [
            ("buckets", Json.Arr buckets);
            ("sum", Json.Num h.sum.total);
            ("count", Json.Num (float_of_int h.count));
          ]
    in
    Json.Obj (base @ rest)
  in
  Json.Obj
    [ ("metrics", Json.Arr (List.map metric_json (metrics_in_order ()))) ]

let reset_values () =
  with_lock (fun () ->
      List.iter
        (fun m ->
          match m.value with
          | Counter c -> Atomic.set c 0
          | Gauge g -> g := 0.
          | Histogram h ->
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.sum.total <- 0.;
              h.count <- 0)
        !registry)
