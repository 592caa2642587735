module Stats = Memsim.Stats

type kind = Query | Op | Phase

type node = {
  id : string;
  mutable label : string;
  kind : kind;
  mutable calls : int;
  self : Stats.t;
}

type profile = { label : string; nodes : node list; domains : profile list }

let root_id = ""

let child path i =
  if String.equal path root_id then string_of_int i
  else Printf.sprintf "%s.%d" path i

let phase_id path name = Printf.sprintf "%s#%s" path name

let parent_id id =
  if String.equal id root_id then None
  else
    let cut = ref (-1) in
    String.iteri (fun i c -> if c = '.' || c = '#' then cut := i) id;
    if !cut < 0 then Some root_id else Some (String.sub id 0 !cut)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let under prefix id =
  if String.equal prefix root_id then true
  else
    String.equal prefix id
    || starts_with ~prefix:(prefix ^ ".") id
    || starts_with ~prefix:(prefix ^ "#") id

let find p id = List.find_opt (fun n -> String.equal n.id id) p.nodes

let total p =
  let acc = Stats.create () in
  List.iter (fun n -> Stats.add acc n.self) p.nodes;
  acc

let rec inclusive p prefix =
  let acc = Stats.create () in
  List.iter (fun n -> if under prefix n.id then Stats.add acc n.self) p.nodes;
  List.iter (fun d -> Stats.add acc (inclusive d prefix)) p.domains;
  acc

(* depth = number of '.'/'#' separators, i.e. tree level below the root *)
let depth id =
  if String.equal id root_id then 0
  else
    1 + String.fold_left (fun d c -> if c = '.' || c = '#' then d + 1 else d) 0 id

let pp_node ppf n ~level =
  let st = n.self in
  Format.fprintf ppf "%s%-*s %10d cyc (mem %d, cpu %d)  calls %d"
    (String.make (2 * level) ' ')
    (max 1 (28 - (2 * level)))
    (if String.equal n.id root_id then n.label
     else Printf.sprintf "%s %s" n.id n.label)
    (Stats.total_cycles st) st.Stats.mem_cycles st.Stats.cpu_cycles n.calls;
  if st.Stats.l1_misses + st.Stats.llc_seq_misses + st.Stats.llc_rand_misses > 0
  then
    Format.fprintf ppf "  [L1 %d L2 %d LLC %d+%d TLB %d]" st.Stats.l1_misses
      st.Stats.l2_misses st.Stats.llc_seq_misses st.Stats.llc_rand_misses
      st.Stats.tlb_misses

let rec pp ppf p =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i n ->
      if i > 0 then Format.fprintf ppf "@,";
      pp_node ppf n ~level:(depth n.id))
    p.nodes;
  List.iter
    (fun d -> Format.fprintf ppf "@,-- %s --@,%a" d.label pp d)
    p.domains;
  Format.fprintf ppf "@]"
