module Stats = Memsim.Stats

type session = {
  hier : Memsim.Hierarchy.t option;
  label : string;
  tbl : (string, Span.node) Hashtbl.t;
  mutable rev_nodes : Span.node list;
  mutable stack : Span.node list;  (* innermost first; bottom is the root *)
  mark : Stats.t;  (* hierarchy counters at the last attribution point *)
  mutable domains : Span.profile list;
  prev : session option;
}

let key : session option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get key
let on () = Option.is_some (current ())

let blit (src : Stats.t) (dst : Stats.t) =
  dst.accesses <- src.accesses;
  dst.reads <- src.reads;
  dst.writes <- src.writes;
  dst.l1_misses <- src.l1_misses;
  dst.l2_misses <- src.l2_misses;
  dst.llc_accesses <- src.llc_accesses;
  dst.llc_seq_misses <- src.llc_seq_misses;
  dst.llc_rand_misses <- src.llc_rand_misses;
  dst.tlb_misses <- src.tlb_misses;
  dst.prefetches <- src.prefetches;
  dst.mem_cycles <- src.mem_cycles;
  dst.cpu_cycles <- src.cpu_cycles

(* Attribute the counter delta since [s.mark] to the innermost open span
   and re-base the mark.  Called at every span boundary, so each node
   ends up with exactly its self-time. *)
let flush s =
  match s.hier with
  | None -> ()
  | Some h ->
      let live = Memsim.Hierarchy.stats h in
      (match s.stack with
      | top :: _ -> Stats.add top.Span.self (Stats.diff live s.mark)
      | [] -> ());
      blit live s.mark

let node_for s ~id ~label ~kind =
  match Hashtbl.find_opt s.tbl id with
  | Some n -> n
  | None ->
      let n = { Span.id; label; kind; calls = 0; self = Stats.create () } in
      Hashtbl.add s.tbl id n;
      s.rev_nodes <- n :: s.rev_nodes;
      n

let enter s n =
  flush s;
  n.Span.calls <- n.Span.calls + 1;
  s.stack <- n :: s.stack

let exit_top s =
  flush s;
  match s.stack with _ :: rest -> s.stack <- rest | [] -> ()

let start ?hier ?(label = "query") () =
  let s =
    {
      hier;
      label;
      tbl = Hashtbl.create 32;
      rev_nodes = [];
      stack = [];
      mark = Stats.create ();
      domains = [];
      prev = current ();
    }
  in
  let root = node_for s ~id:Span.root_id ~label ~kind:Span.Query in
  root.Span.calls <- 1;
  s.stack <- [ root ];
  (match hier with
  | Some h -> blit (Memsim.Hierarchy.stats h) s.mark
  | None -> ());
  Domain.DLS.set key (Some s);
  s

let stop s =
  flush s;
  Domain.DLS.set key s.prev;
  { Span.label = s.label; nodes = List.rev s.rev_nodes; domains = s.domains }

let profiled ?hier ?label f =
  let s = start ?hier ?label () in
  match f () with
  | v -> (v, stop s)
  | exception e ->
      ignore (stop s);
      raise e

let resync () =
  match current () with
  | Some ({ hier = Some h; _ } as s) -> blit (Memsim.Hierarchy.stats h) s.mark
  | _ -> ()

let op ~id ~label f =
  match current () with
  | None -> f ()
  | Some s ->
      let n = node_for s ~id ~label ~kind:Span.Op in
      enter s n;
      Fun.protect ~finally:(fun () -> exit_top s) f

let phase name f =
  match current () with
  | None -> f ()
  | Some s ->
      let parent =
        match s.stack with n :: _ -> n.Span.id | [] -> Span.root_id
      in
      let n =
        node_for s ~id:(Span.phase_id parent name) ~label:name ~kind:Span.Phase
      in
      enter s n;
      Fun.protect ~finally:(fun () -> exit_top s) f

let phase_at ~id name f =
  match current () with
  | None -> f ()
  | Some s ->
      let n =
        node_for s ~id:(Span.phase_id id name) ~label:name ~kind:Span.Phase
      in
      enter s n;
      Fun.protect ~finally:(fun () -> exit_top s) f

let annotate ~id note =
  match current () with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.tbl id with
      | Some n -> n.Span.label <- n.Span.label ^ " " ^ note
      | None -> ())

let add_domains ps =
  match current () with
  | None -> ()
  | Some s -> s.domains <- s.domains @ ps
