(* Compiled query pipelines: emit a C99 translation unit per plan
   (C_emitter.emit_unit), build it with the system cc into a shared
   object, dlopen it and run the [mrdb_query] entry point directly over
   the scanned relations' partition bytes.

   Objects are cached twice: a process-local table maps source digests to
   resolved function pointers, and the object files themselves live in a
   digest-named cache directory so repeated processes skip the cc run.
   Anything outside the compiled subset — or any emission, compile or
   load failure — falls back to the interpreted {!Jit} engine, so the
   engine is always total. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Value = Storage.Value
module Physical = Relalg.Physical

external dlopen_stub : string -> nativeint = "mrdb_dlopen_stub"
external dlsym_stub : nativeint -> string -> nativeint = "mrdb_dlsym_stub"
external dlclose_stub : nativeint -> unit = "mrdb_dlclose_stub"

external call_query :
  nativeint -> Bytes.t array -> int array -> int array -> Bytes.t -> Bytes.t
  = "mrdb_call_query_stub"

(* ---------------- metrics ---------------- *)

let cache_hits =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_cache_hits_total"
       ~help:"Compiled pipeline runs served from the object cache")

let cache_misses =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_cache_misses_total"
       ~help:"Compiled pipeline runs that invoked the C compiler")

let fallbacks =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_fallbacks_total"
       ~help:"Compiled-engine runs served by the interpreted fallback")

let compile_seconds =
  lazy
    (Obs.Metrics.histogram "mrdb_compiled_compile_seconds"
       ~help:"Wall time of cc invocations for compiled pipelines")

(* ---------------- compiler availability ---------------- *)

let cc_name () =
  match Sys.getenv_opt "MRDB_CC" with
  | Some c when c <> "" -> c
  | _ -> "cc"

(* One probe per process (per compiler name): does the compiler run at
   all?  [MRDB_NO_CC] is consulted on every call so tests can force the
   fallback path without restarting. *)
let probed : (string, bool) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let cc_available () =
  match Sys.getenv_opt "MRDB_NO_CC" with
  | Some ("" | "0") | None ->
      let cc = cc_name () in
      with_lock (fun () ->
          match Hashtbl.find_opt probed cc with
          | Some ok -> ok
          | None ->
              let ok =
                Sys.command
                  (Printf.sprintf "%s --version >/dev/null 2>&1"
                     (Filename.quote cc))
                = 0
              in
              Hashtbl.add probed cc ok;
              ok)
  | Some _ -> false

(* ---------------- object cache ---------------- *)

let cache_dir () =
  match Sys.getenv_opt "MRDB_COMPILE_CACHE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "mrdb-compiled"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* digest -> resolved [mrdb_query] pointer; [None] records a plan whose
   compile or load failed, so we do not retry it every run. *)
let fns : (string, nativeint option) Hashtbl.t = Hashtbl.create 16

let reset_cache () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ fn ->
          ignore fn (* handles stay open; objects are process-lifetime *))
        fns;
      Hashtbl.reset fns;
      Hashtbl.reset probed)

let compile_object ~cc ~src_path ~obj_path =
  let tmp = Printf.sprintf "%s.%d.tmp" obj_path (Unix.getpid ()) in
  let cmd =
    Printf.sprintf "%s -O2 -fPIC -shared -o %s %s >/dev/null 2>&1"
      (Filename.quote cc) (Filename.quote tmp) (Filename.quote src_path)
  in
  let t0 = Unix.gettimeofday () in
  let rc = Sys.command cmd in
  Obs.Metrics.observe (Lazy.force compile_seconds) (Unix.gettimeofday () -. t0);
  if rc = 0 then begin
    Sys.rename tmp obj_path;
    true
  end
  else begin
    (try Sys.remove tmp with Sys_error _ -> ());
    false
  end

let write_source path source =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  output_string oc source;
  close_out oc;
  Sys.rename tmp path

(* Resolve the entry point for [source], compiling at most once per
   digest per process.  Returns [None] when the compile/load failed
   (recorded, so the cost is paid once).  Callers check {!cc_available}
   first. *)
let lookup_fn source =
  let digest = Digest.to_hex (Digest.string source) in
  with_lock (fun () ->
      match Hashtbl.find_opt fns digest with
      | Some fn -> fn
      | None ->
          let fn =
            try
              let dir = cache_dir () in
              ensure_dir dir;
              let obj = Filename.concat dir (digest ^ ".so") in
              let ok =
                if Sys.file_exists obj then begin
                  Obs.Metrics.incr (Lazy.force cache_hits);
                  true
                end
                else begin
                  Obs.Metrics.incr (Lazy.force cache_misses);
                  let src = Filename.concat dir (digest ^ ".c") in
                  write_source src source;
                  compile_object ~cc:(cc_name ()) ~src_path:src
                    ~obj_path:obj
                end
              in
              if not ok then None
              else
                let h = dlopen_stub obj in
                if h = 0n then None
                else
                  let fn = dlsym_stub h "mrdb_query" in
                  if fn = 0n then begin
                    dlclose_stub h;
                    None
                  end
                  else Some fn
            with Sys_error _ | Unix.Unix_error _ -> None
          in
          Hashtbl.add fns digest fn;
          fn)

(* ---------------- execution ---------------- *)

let decode_rows out ~out_arity =
  let rows = ref [] and pos = ref 8 in
  for _ = 1 to Int64.to_int (Bytes.get_int64_le out 0) do
    let row = Array.make out_arity Value.Null in
    for i = 0 to out_arity - 1 do
      let p = !pos in
      match Bytes.get out p with
      | '\000' -> pos := p + 1
      | '\005' ->
          let len = Int32.to_int (Bytes.get_int32_le out (p + 1)) in
          row.(i) <- Value.VStr (Bytes.sub_string out (p + 5) len);
          pos := p + 5 + len
      | tag ->
          let bits = Bytes.get_int64_le out (p + 1) in
          row.(i) <-
            (match tag with
            | '\001' -> Value.VInt (Int64.to_int bits)
            | '\002' -> Value.VFloat (Int64.float_of_bits bits)
            | '\003' -> Value.VBool (bits <> 0L)
            | '\004' -> Value.VDate (Int64.to_int bits)
            | _ -> invalid_arg "Compiled: bad tag in result buffer");
          pos := p + 9
    done;
    rows := row :: !rows
  done;
  List.rev !rows

exception Fallback_needed

(* Run a loaded unit over the current state of its scanned tables.  The
   unit's addressing is baked in, so every scanned table must still have
   the layout and partition widths it was compiled for, plain-encoded;
   otherwise the run falls back. *)
let execute_fn fn cat ~(info : C_emitter.unit_info) ~params ~columns =
  let tables = info.C_emitter.tables in
  let rels =
    Array.map
      (fun (t : C_emitter.scanned) ->
        let rel = Catalog.find cat t.C_emitter.name in
        if Relation.encodings rel <> [] || C_emitter.scanned_of t.name rel <> t
        then raise Fallback_needed;
        rel)
      tables
  in
  let per_part f =
    Array.concat
      (Array.to_list
         (Array.map
            (fun rel -> Array.init (Relation.n_parts rel) (f rel))
            rels))
  in
  let parts =
    per_part (fun rel p ->
        Storage.Buffer.unsafe_bytes (Relation.part_buffer rel p))
  in
  let offs = per_part Relation.part_row_offset in
  let nrows = Array.map Relation.nrows rels in
  let out = call_query fn parts offs nrows params in
  if Bytes.length out < 8 then raise Fallback_needed;
  { Runtime.columns; rows = decode_rows out ~out_arity:info.C_emitter.out_arity }

let fallback cat plan ~params () =
  Obs.Metrics.incr (Lazy.force fallbacks);
  Jit.run cat plan ~params

(* Emit and load the plan's unit, or say why it must run on Jit. *)
let compile cat plan ~params =
  match C_emitter.emit_unit cat plan ~params with
  | Error reason -> Error reason
  | Ok info -> (
      if not (cc_available ()) then Error "no C compiler"
      else
        match lookup_fn info.C_emitter.source with
        | None -> Error "compile or load failed"
        | Some fn -> Ok (fn, info))

(* Compile once, step many times: the returned thunk re-reads the scanned
   relations' row windows on every call, so it serves as a {!Parallel}
   preparer — morsel reslicing moves [row_base]/[nrows] between calls.
   The [#compile] phase of a profile is labelled with the verdict. *)
let prepare cat plan ~params =
  let path = Prof.child Prof.root 0 in
  let compiled =
    Prof.phase_at path "#compile" (fun () -> compile cat plan ~params)
  in
  Obs.Profile.annotate
    ~id:(Obs.Span.phase_id path "#compile")
    (match compiled with
    | Ok _ -> "native"
    | Error reason -> "jit fallback: " ^ reason);
  match compiled with
  | Error _ -> fun () -> fallback cat plan ~params ()
  | Ok (fn, info) ->
      let schema = Physical.schema cat plan in
      let columns =
        Array.map (fun (a : Storage.Schema.attr) -> a.Storage.Schema.name)
          schema
      in
      let param_bytes = C_emitter.param_bytes params in
      fun () ->
        Prof.op_id path ~label:"compiled pipeline" (fun () ->
            try execute_fn fn cat ~info ~params:param_bytes ~columns
            with Fallback_needed -> fallback cat plan ~params ())

let run cat plan ~params = prepare cat plan ~params ()
