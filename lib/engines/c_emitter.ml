(* The C99 backend of the compiled engine.

   [emit_unit] lowers a physical plan to one self-contained C99 translation
   unit in the data-centric style of the paper's Fig. 2c: operators fuse
   into loops (one per pipeline), values stay in locals, and only pipeline
   breakers — a hash-join build, a group-by table, a sort buffer —
   materialize.  The unit's [mrdb_query] entry point reproduces the
   interpreted engines' results row for row: 63-bit wrapping integer
   arithmetic, total-order float comparison, SQL null propagation,
   insertion-order group emission, build-order join matches and stable
   sorts in [Value.compare] order.

   The source depends only on the plan, the layouts of the scanned tables
   and the types of the parameters: parameter values and row counts are
   run-time arguments, so every parameter vector of one type signature
   shares one object. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema
module Value = Storage.Value
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type scanned = { name : string; groups : int list list; widths : int array }

type unit_info = {
  source : string;
  tables : scanned array;
  out_arity : int;
  tagged_entry_fields : int;
  groupjoins : int;
}

let scanned_of name rel =
  {
    name;
    groups = Layout.to_groups (Relation.layout rel);
    widths = Array.init (Relation.n_parts rel) (Relation.part_width rel);
  }

let max_tables = 64
let max_parts = 256

(* Parameters cross the ABI as 16-byte (tag, payload) records, tags as in
   the result encoding below. *)
let param_bytes params =
  let b = Bytes.make (16 * Array.length params) '\000' in
  Array.iteri
    (fun i v ->
      let tag, bits =
        match (v : Value.t) with
        | Value.Null -> (0, 0L)
        | Value.VInt x -> (1, Int64.of_int x)
        | Value.VFloat f -> (2, Int64.bits_of_float f)
        | Value.VBool x -> (3, if x then 1L else 0L)
        | Value.VDate d -> (4, Int64.of_int d)
        | Value.VStr _ -> (5, 0L)
      in
      Bytes.set_int64_le b (16 * i) (Int64.of_int tag);
      Bytes.set_int64_le b ((16 * i) + 8) bits)
    params;
  b

(* Static expression types.  [CNull] is the type of expressions that are
   always null; [CGone] marks a column no consumer reads, which the need
   analysis left unmaterialized — touching one is an emitter bug and
   aborts the emission. *)
type cty = CInt | CFloat | CBool | CDate | CNull | CStr | CGone

(* How a value is available in generated code: C expressions for its null
   flag (an int, 1 = null), its payload and, for strings, its length (the
   payload is then a byte pointer). *)
type cslot = { ty : cty; null_c : string; val_c : string; len_c : string }

let slot ty null_c val_c = { ty; null_c; val_c; len_c = "0" }
let null_slot = slot CNull "1" "0"
let gone = slot CGone "1" "0"

let rank_of = function
  | CNull -> 0
  | CBool -> 1
  | CInt -> 2
  | CFloat -> 3
  | CDate -> 4
  | CStr -> 5
  | CGone -> unsupported "internal: column not materialized"

(* Tag bytes of [mv] values, parameters and result fields. *)
let tag_of = function
  | CNull -> 0
  | CInt -> 1
  | CFloat -> 2
  | CBool -> 3
  | CDate -> 4
  | CStr -> 5
  | CGone -> unsupported "internal: column not materialized"

let ty_of_value = function
  | Value.Null -> CNull
  | Value.VInt _ -> CInt
  | Value.VFloat _ -> CFloat
  | Value.VBool _ -> CBool
  | Value.VDate _ -> CDate
  | Value.VStr _ -> CStr

type ctx = {
  cat : Catalog.t;
  ptypes : cty array; (* static type of each bound parameter *)
  decls : Buffer.t; (* file-scope types and helpers *)
  locals : Buffer.t; (* zero-initialized locals at the top of mrdb_query *)
  body : Buffer.t; (* statements of mrdb_query *)
  mutable indent : int;
  mutable tmp : int;
  mutable frees : string list; (* cleanup statements, run on every exit *)
  mutable tables : (scanned * int) list;
      (* scanned tables with their first index in [parts], newest first *)
  mutable nparts : int;
  mutable loaded : int list; (* parameters already read into locals *)
  mutable tagged : int; (* tagged [mv] members declared in entry structs *)
  mutable groupjoins : int; (* group-bys reached through a join's group index *)
}

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.body (String.make (2 * ctx.indent) ' ');
      Buffer.add_string ctx.body s;
      Buffer.add_char ctx.body '\n')
    fmt

let decl ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.decls s;
      Buffer.add_char ctx.decls '\n')
    fmt

let local ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.locals "  ";
      Buffer.add_string ctx.locals s;
      Buffer.add_char ctx.locals '\n')
    fmt

let fresh ctx prefix =
  ctx.tmp <- ctx.tmp + 1;
  Printf.sprintf "%s%d" prefix ctx.tmp

let nest ctx f =
  ctx.indent <- ctx.indent + 1;
  f ();
  ctx.indent <- ctx.indent - 1

let guarded ctx cond f =
  line ctx "if (%s) {" cond;
  nest ctx f;
  line ctx "}"

(* The fixed prelude: value representation and the helpers that pin down
   OCaml semantics.  Integer add/sub/mul go through unsigned arithmetic
   then re-truncate to 63 bits ([w63]), exactly the native-int wrap of the
   interpreter; division guards 0 and -1 divisors the way
   {!Relalg.Expr.apply_arith} and OCaml [Div]/[Mod] behave; [fcmp] is
   [Stdlib.compare] on floats (total order, nan below everything,
   -0. = 0.).  A string [mv] points at the bytes of a stored field, which
   stay put for the whole call, and carries its length: a stored varchar
   ends at its first NUL or at the field width.

   Of libc the unit includes only <stdint.h> and declares the nine
   functions it calls itself: parsing <stdlib.h>, <string.h> and
   <math.h> took a quarter of cc's time on a small unit.  The compiler is
   run with -Werror=implicit-function-declaration, so a call this list
   misses fails the compile (and falls back) instead of truncating a
   returned pointer. *)
let prelude =
  {|/* generated by mrdb — compiled query pipeline; do not edit */
#include <stdint.h>

typedef __SIZE_TYPE__ size_t;
#define NULL ((void *)0)
void *malloc(size_t);
void *realloc(void *, size_t);
void free(void *);
void qsort(void *, size_t, size_t, int (*)(const void *, const void *));
void *memcpy(void *restrict, const void *restrict, size_t);
void *memset(void *, int, size_t);
int memcmp(const void *, const void *, size_t);
void *memchr(const void *, int, size_t);
double fmod(double, double);

typedef struct { uint8_t tag; uint32_t len; int64_t bits; } mv;
typedef struct { unsigned char *buf; int64_t len, cap; } mrdb_out;

static inline int64_t w63(int64_t x) { return (int64_t)((uint64_t)x << 1) >> 1; }
static inline int64_t iadd(int64_t a, int64_t b) { return w63((int64_t)((uint64_t)a + (uint64_t)b)); }
static inline int64_t isub(int64_t a, int64_t b) { return w63((int64_t)((uint64_t)a - (uint64_t)b)); }
static inline int64_t imul(int64_t a, int64_t b) { return w63((int64_t)((uint64_t)a * (uint64_t)b)); }
static inline int64_t idiv63(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (b == -1) return w63(-a);
  return a / b;
}
static inline int64_t imod63(int64_t a, int64_t b) {
  if (b == 0 || b == -1) return 0;
  return a % b;
}
static inline int64_t ld64(const unsigned char *p) { int64_t v; memcpy(&v, p, 8); return v; }
static inline double ldf(const unsigned char *p) { double v; memcpy(&v, p, 8); return v; }
static inline int64_t dbits(double d) { int64_t v; memcpy(&v, &d, 8); return v; }
static inline double bitsd(int64_t b) { double v; memcpy(&v, &b, 8); return v; }
static inline int icmp(int64_t a, int64_t b) { return (a > b) - (a < b); }
static inline int fcmp(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  { int na = (a != a), nb = (b != b);
    if (na && nb) return 0;
    return na ? -1 : 1; }
}
/* Stdlib.compare on strings: bytes, then length */
static inline int scmp(const unsigned char *a, uint32_t la, const unsigned char *b, uint32_t lb) {
  int c = memcmp(a, b, la < lb ? la : lb);
  if (c) return c < 0 ? -1 : 1;
  return (la > lb) - (la < lb);
}
static inline uint32_t slen(const unsigned char *p, uint32_t w) {
  const unsigned char *z = memchr(p, 0, w);
  return z ? (uint32_t)(z - p) : w;
}
static inline const unsigned char *sptr(const mv *v) { return (const unsigned char *)(intptr_t)v->bits; }

/* Hashing reproduces Hash_index.key_of_values: a 63-bit fold of raw value
   bits (ints, dates and bools by value, floats by their IEEE bits less the
   top one, strings by FNV-1a, null as OCaml min_int / 2), mixed key by key
   with hmix.  Only bucket choice and the fold-equality half of the join
   rule depend on it. */
static int64_t fnv(const unsigned char *p, uint32_t n) {
  uint64_t h = UINT64_C(0x3bf29ce484222325);
  for (uint32_t i = 0; i < n; i++) {
    h ^= p[i];
    h = (h * UINT64_C(0x100000001b3)) & UINT64_C(0x3fffffffffffffff);
  }
  return (int64_t)h;
}
static inline int64_t hmix(int64_t h, int64_t k) { return w63((int64_t)((uint64_t)h * 1000003u)) ^ k; }
/* bucket choice only: equality always rechecks the full fold */
static inline uint64_t hslot(int64_t h) {
  uint64_t x = (uint64_t)h;
  x ^= x >> 33; x *= UINT64_C(0xff51afd7ed558ccd); x ^= x >> 33;
  return x;
}
/* A join's buckets.  A build whose keys are their own folds, all in
   [lo, hi] and dense (hi - lo at most 8n + 64), is direct-mapped: fold h
   owns bucket h - lo, so a probe in key order walks the buckets in order,
   a bucket never holds a key other than its own, and a fold outside the
   range gets bucket mask + 1, which stays empty.  Any other build, an
   empty range (lo > hi) included, hashes into a power of two of at least
   2n buckets.  [jsize] sets the mask and says whether the buckets are
   direct-mapped; [jslot] picks fold h's bucket, computing both candidates
   so that no branch on the mode enters the loops it is inlined into. */
static int jsize(int64_t n, int64_t lo, int64_t hi, uint64_t *mask) {
  if (hi >= lo && (uint64_t)hi - (uint64_t)lo <= 8 * (uint64_t)n + 64) {
    *mask = (uint64_t)hi - (uint64_t)lo;
    return 1;
  }
  uint64_t m = 15;
  while (m + 1 < 2 * (uint64_t)n) m = m * 2 + 1;
  *mask = m;
  return 0;
}
static inline uint64_t jslot(int64_t h, int64_t lo, uint64_t mask, int dense) {
  uint64_t s = (uint64_t)h - (uint64_t)lo, x = hslot(h) & mask;
  s = s <= mask ? s : mask + 1;
  return dense ? s : x;
}

/* Grow an entry array to hold at least one more entry; NULL when out of
   memory or at INT32_MAX entries, the most an int32_t index addresses (the
   old block stays valid and is freed on exit). */
static void *grow(void *p, int64_t *cap, size_t elt) {
  int64_t ncap = *cap ? *cap * 2 : 64;
  if (ncap > INT32_MAX) ncap = INT32_MAX;
  if (ncap <= *cap) return NULL;
  void *np = realloc(p, (size_t)ncap * elt);
  if (np) *cap = ncap;
  return np;
}

/* The result: an 8-byte row count, then per field a tag byte followed by
   8 payload bytes (int, float bits, bool, date), a 4-byte length and the
   bytes (string), or nothing (null).  The buffer grows as needed, so one
   call returns a result of any size. */
static int out_reserve(mrdb_out *o, int64_t need) {
  if (o->len + need <= o->cap) return 1;
  int64_t ncap = o->cap ? o->cap : 4096;
  while (ncap < o->len + need) ncap *= 2;
  unsigned char *nb = realloc(o->buf, (size_t)ncap);
  if (!nb) return 0;
  o->buf = nb; o->cap = ncap;
  return 1;
}
static int put_row(mrdb_out *o, const mv *v, int n) {
  int64_t need = 0;
  for (int i = 0; i < n; i++)
    need += v[i].tag == 0 ? 1 : v[i].tag == 5 ? 5 + (int64_t)v[i].len : 9;
  if (!out_reserve(o, need)) return 0;
  unsigned char *p = o->buf + o->len;
  for (int i = 0; i < n; i++) {
    *p = v[i].tag;
    if (v[i].tag == 5) {
      memcpy(p + 1, &v[i].len, 4);
      memcpy(p + 5, sptr(&v[i]), v[i].len);
      p += 5 + v[i].len;
    } else if (v[i].tag != 0) {
      memcpy(p + 1, &v[i].bits, 8);
      p += 9;
    } else p += 1;
  }
  o->len += need;
  return 1;
}
|}

(* ---------------- values ---------------- *)

(* Constant folding for the 0/1 C conditions slots carry. *)
let c_not = function "0" -> "1" | "1" -> "0" | c -> Printf.sprintf "!(%s)" c

let c_and cs =
  if List.mem "0" cs then "0"
  else
    match List.filter (fun c -> c <> "1") cs with
    | [] -> "1"
    | [ c ] -> c
    | cs ->
        "(" ^ String.concat " && " (List.map (Printf.sprintf "(%s)") cs) ^ ")"

let c_or a b =
  if a = "1" || b = "1" then "1"
  else if a = "0" then b
  else if b = "0" then a
  else Printf.sprintf "((%s) || (%s))" a b

let truthy_c (s : cslot) =
  match s.ty with
  | CBool -> Printf.sprintf "(!(%s) && (%s))" s.null_c s.val_c
  | _ -> "0"

let const_slot (v : Value.t) =
  match v with
  | Value.Null -> null_slot
  | Value.VInt x -> slot CInt "0" (Printf.sprintf "INT64_C(%d)" x)
  | Value.VDate d -> slot CDate "0" (Printf.sprintf "INT64_C(%d)" d)
  | Value.VBool b -> slot CBool "0" (if b then "1" else "0")
  | Value.VFloat f ->
      slot CFloat "0"
        (Printf.sprintf "bitsd(INT64_C(%Ld))" (Int64.bits_of_float f))
  | Value.VStr _ -> unsupported "string constant"

(* A parameter is read once, at entry, into a typed local. *)
let param_slot ctx n =
  if n < 1 || n > Array.length ctx.ptypes then
    unsupported "parameter $%d not bound" n;
  let ty = ctx.ptypes.(n - 1) in
  let v = Printf.sprintf "P%d" n in
  let load fmt =
    if not (List.mem n ctx.loaded) then begin
      ctx.loaded <- n :: ctx.loaded;
      local ctx fmt v ((16 * (n - 1)) + 8)
    end
  in
  match ty with
  | CNull -> null_slot
  | CInt | CDate ->
      load "const int64_t %s = ld64(params + %d);";
      slot ty "0" v
  | CFloat ->
      load "const double %s = ldf(params + %d);";
      slot ty "0" v
  | CBool ->
      load "const int %s = ld64(params + %d) != 0;";
      slot ty "0" v
  | CStr -> unsupported "string parameter"
  | CGone -> assert false

let as_double (s : cslot) =
  match s.ty with
  | CFloat -> s.val_c
  | CInt | CDate -> Printf.sprintf "(double)(%s)" s.val_c
  | CBool -> Printf.sprintf "((%s) ? 1.0 : 0.0)" s.val_c
  | CNull | CStr | CGone -> unsupported "float conversion of non-numeric"

let as_int63 (s : cslot) =
  match s.ty with
  | CInt | CDate -> s.val_c
  | CBool -> Printf.sprintf "((int64_t)(%s))" s.val_c
  | CFloat | CNull | CStr | CGone -> unsupported "int conversion of non-int"

let cmp_sym = function
  | Expr.Eq -> "=="
  | Expr.Ne -> "!="
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="

let cmp_holds op c =
  match (op : Expr.cmp) with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

let rec cexpr ctx (slots : cslot array) (e : Expr.t) : cslot =
  match e with
  | Expr.Col i ->
      if i < 0 || i >= Array.length slots then unsupported "column out of range";
      if slots.(i).ty = CGone then
        unsupported "internal: column %d not materialized" i;
      slots.(i)
  | Expr.Const v -> const_slot v
  | Expr.Param n -> param_slot ctx n
  | Expr.Like _ -> unsupported "like"
  | Expr.IsNull a ->
      let s = cexpr ctx slots a in
      slot CBool "0" (Printf.sprintf "(%s)" s.null_c)
  | Expr.Not a ->
      let s = cexpr ctx slots a in
      slot CBool "0" (Printf.sprintf "(!%s)" (truthy_c s))
  (* conjuncts and disjuncts are side-effect-free 0/1 ints, already
     computed: combining them bitwise keeps a selective predicate to one
     branch *)
  | Expr.And es ->
      let parts = List.map (fun e -> truthy_c (cexpr ctx slots e)) es in
      let v = if parts = [] then "1" else String.concat " & " parts in
      slot CBool "0" (Printf.sprintf "(%s)" v)
  | Expr.Or es ->
      let parts = List.map (fun e -> truthy_c (cexpr ctx slots e)) es in
      let v = if parts = [] then "0" else String.concat " | " parts in
      slot CBool "0" (Printf.sprintf "(%s)" v)
  | Expr.Cmp (op, a, b) -> (
      let sa = cexpr ctx slots a and sb = cexpr ctx slots b in
      let bind cmp_c =
        let v = fresh ctx "c" in
        line ctx "int %s = (!(%s) && !(%s) && (%s));" v sa.null_c sb.null_c
          cmp_c;
        slot CBool "0" v
      in
      match (sa.ty, sb.ty) with
      | CNull, _ | _, CNull ->
          (* a null operand compares to false, and a CNull expression is
             always null *)
          slot CBool "0" "0"
      | (CInt, CInt | CDate, CDate | CInt, CDate | CDate, CInt | CBool, CBool)
        ->
          bind
            (Printf.sprintf "(%s) %s (%s)" (as_int63 sa) (cmp_sym op)
               (as_int63 sb))
      | CFloat, (CFloat | CInt) | CInt, CFloat ->
          bind
            (Printf.sprintf "fcmp(%s, %s) %s 0" (as_double sa) (as_double sb)
               (cmp_sym op))
      | CStr, CStr -> unsupported "string comparison"
      | ta, tb ->
          (* mixed constructor ranks compare as compile-time constants *)
          let c = compare (rank_of ta) (rank_of tb) in
          bind (if cmp_holds op c then "1" else "0"))
  | Expr.Arith (op, a, b) ->
      let sa = cexpr ctx slots a and sb = cexpr ctx slots b in
      if sa.ty = CNull || sb.ty = CNull then null_slot
      else if sa.ty = CStr || sb.ty = CStr then unsupported "string arithmetic"
      else begin
        let n =
          match c_or sa.null_c sb.null_c with
          | "0" -> "0"
          | c ->
              let n = fresh ctx "u" in
              line ctx "int %s = %s;" n c;
              n
        in
        let v = fresh ctx "x" in
        if sa.ty = CFloat || sb.ty = CFloat then begin
          let fa = as_double sa and fb = as_double sb in
          let expr =
            match op with
            | Expr.Add -> Printf.sprintf "(%s) + (%s)" fa fb
            | Expr.Sub -> Printf.sprintf "(%s) - (%s)" fa fb
            | Expr.Mul -> Printf.sprintf "(%s) * (%s)" fa fb
            | Expr.Div -> Printf.sprintf "(%s) / (%s)" fa fb
            | Expr.Mod -> Printf.sprintf "fmod(%s, %s)" fa fb
          in
          line ctx "double %s = %s;" v expr;
          slot CFloat n v
        end
        else begin
          let ia = as_int63 sa and ib = as_int63 sb in
          let expr =
            match op with
            | Expr.Add -> Printf.sprintf "iadd(%s, %s)" ia ib
            | Expr.Sub -> Printf.sprintf "isub(%s, %s)" ia ib
            | Expr.Mul -> Printf.sprintf "imul(%s, %s)" ia ib
            | Expr.Div -> Printf.sprintf "idiv63(%s, %s)" ia ib
            | Expr.Mod -> Printf.sprintf "imod63(%s, %s)" ia ib
          in
          line ctx "int64_t %s = %s;" v expr;
          slot CInt n v
        end
      end

(* Pack a slot into an [mv] lvalue of a result row.  Null payloads are
   forced to 0; only strings set the length. *)
let pack_mv ctx (s : cslot) dst =
  let set () =
    let tag = tag_of s.ty in
    match s.ty with
    | CInt | CDate ->
        Printf.sprintf "%s.tag = %d; %s.bits = %s;" dst tag dst s.val_c
    | CBool ->
        Printf.sprintf "%s.tag = %d; %s.bits = (%s) ? 1 : 0;" dst tag dst s.val_c
    | CFloat ->
        Printf.sprintf "%s.tag = %d; %s.bits = dbits(%s);" dst tag dst s.val_c
    | CStr ->
        Printf.sprintf
          "%s.tag = %d; %s.bits = (int64_t)(intptr_t)(%s); %s.len = %s;" dst tag
          dst s.val_c dst s.len_c
    | CNull | CGone -> assert false
  in
  match s.ty with
  | CGone -> unsupported "internal: column not materialized"
  | CNull -> line ctx "%s.tag = 0; %s.bits = 0;" dst dst
  | _ when s.null_c = "0" -> line ctx "%s" (set ())
  | _ ->
      line ctx "if (%s) { %s.tag = 0; %s.bits = 0; }" s.null_c dst dst;
      line ctx "else { %s }" (set ())

(* ---------------- typed entries ---------------- *)

(* Pipeline breakers keep their rows in entries of typed fields, one per
   materialized slot, chosen by the slot's static type: [int64_t] for
   Int/Date/Bool, [double] for Float, a pointer and a [uint32_t] length
   for Varchar, nothing for a slot that is always null, and a null byte
   only where the slot can be null.  The tagged [mv] stays at the ABI. *)

let null_of (s : cslot) = if s.ty = CNull then "1" else s.null_c

(* A member of an entry struct, with its size in bytes. *)
type member = { mty : string; mname : string; msize : int }

(* A stored slot: its static type, whether it can be null, and the stem
   of its member names. *)
type field = { fty : cty; fnull : bool; fname : string }

let field_of (s : cslot) fname =
  if s.ty = CGone then unsupported "internal: column not materialized";
  { fty = s.ty; fnull = s.ty <> CNull && s.null_c <> "0"; fname }

let members f =
  let m mty mname msize = { mty; mname; msize } in
  (match f.fty with
  | CInt | CDate | CBool -> [ m "int64_t" f.fname 8 ]
  | CFloat -> [ m "double" f.fname 8 ]
  | CStr ->
      [ m "const unsigned char *" f.fname 8; m "uint32_t" (f.fname ^ "_len") 4 ]
  | CNull | CGone -> [])
  @ if f.fnull then [ m "uint8_t" (f.fname ^ "_n") 1 ] else []

let fold_member = { mty = "int64_t"; mname = "h"; msize = 8 }

let member_decl m =
  if String.ends_with ~suffix:"*" m.mty then m.mty ^ m.mname
  else m.mty ^ " " ^ m.mname

(* Declare an entry struct, widest members first so that it has no
   interior padding.  Tagged [mv] members are counted for
   {!unit_info.tagged_entry_fields}. *)
let decl_struct ctx name ms =
  let ms = List.stable_sort (fun a b -> compare b.msize a.msize) ms in
  ctx.tagged <-
    ctx.tagged + List.length (List.filter (fun m -> m.mty = "mv") ms);
  decl ctx "typedef struct { %s } %s;"
    (match ms with
    | [] -> "uint8_t unused;"
    | ms -> String.concat " " (List.map (fun m -> member_decl m ^ ";") ms))
    name

(* C statements writing slot [s] into field [f] behind prefix [e] (an
   lvalue prefix such as ["w->"]).  A null slot writes only its flag. *)
let store_c (s : cslot) e f =
  let m = e ^ f.fname in
  let set =
    match f.fty with
    | CInt | CDate | CFloat -> Printf.sprintf "%s = %s;" m s.val_c
    | CBool -> Printf.sprintf "%s = (%s) != 0;" m s.val_c
    | CStr -> Printf.sprintf "%s = %s; %s_len = %s;" m s.val_c m s.len_c
    | CNull | CGone -> ""
  in
  if f.fnull then
    Printf.sprintf "if (!(%s_n = (%s) != 0)) { %s }" m s.null_c set
  else set

let store ctx s e f =
  let c = store_c s e f in
  if c <> "" then line ctx "%s" c

(* The slot reading field [f] behind prefix [e]. *)
let load e f =
  let m = e ^ f.fname in
  let null_c = if f.fnull then m ^ "_n" else "0" in
  match f.fty with
  | CNull -> null_slot
  | CGone -> gone
  | CStr -> { ty = CStr; null_c; val_c = m; len_c = m ^ "_len" }
  | ty -> slot ty null_c m

(* Evaluate slot [s] once into locals named after [v]. *)
let bind ctx (s : cslot) v =
  let null_c =
    if s.ty = CNull || s.null_c = "0" then "0"
    else begin
      line ctx "const int %s_n = (%s) != 0;" v s.null_c;
      v ^ "_n"
    end
  in
  match s.ty with
  | CNull -> null_slot
  | CGone -> unsupported "internal: column not materialized"
  | CInt | CDate ->
      line ctx "const int64_t %s = %s;" v s.val_c;
      slot s.ty null_c v
  | CBool ->
      line ctx "const int %s = (%s) != 0;" v s.val_c;
      slot s.ty null_c v
  | CFloat ->
      line ctx "const double %s = %s;" v s.val_c;
      slot s.ty null_c v
  | CStr ->
      line ctx "const unsigned char *const %s = %s;" v s.val_c;
      line ctx "const uint32_t %s_len = %s;" v s.len_c;
      { ty = CStr; null_c; val_c = v; len_c = v ^ "_len" }

(* The fold of one key value, [Hash_index.key_of_value]. *)
let kv_c (s : cslot) =
  let null_fold = "(-(INT64_C(1) << 61))" in
  let v =
    match s.ty with
    | CNull -> null_fold
    | CInt | CDate -> s.val_c
    | CBool -> Printf.sprintf "((int64_t)(%s))" s.val_c
    | CFloat -> Printf.sprintf "w63(dbits(%s))" s.val_c
    | CStr -> Printf.sprintf "fnv(%s, %s)" s.val_c s.len_c
    | CGone -> unsupported "internal: column not materialized"
  in
  if s.ty = CNull || s.null_c = "0" then v
  else Printf.sprintf "((%s) ? %s : %s)" s.null_c null_fold v

let fold_c = function
  | [] -> "0"
  | s :: rest ->
      List.fold_left
        (fun h s -> Printf.sprintf "hmix(%s, %s)" h (kv_c s))
        (kv_c s) rest

(* A single non-null Int/Date/Bool key is its own fold: its entry stores
   no fold, and equal keys are equal folds. *)
let own_fold = function
  | [ (s : cslot) ] -> (
      match s.ty with CInt | CDate | CBool -> s.null_c = "0" | _ -> false)
  | _ -> false

(* [Value.equal a b] as a C condition: null equals null, an Int equals a
   Date or a Float of the same number, other constructor pairs never. *)
let value_eq (a : cslot) (b : cslot) =
  let same =
    match (a.ty, b.ty) with
    | (CInt | CDate), (CInt | CDate) | CBool, CBool ->
        Printf.sprintf "(%s) == (%s)" a.val_c b.val_c
    | CFloat, CFloat -> Printf.sprintf "fcmp(%s, %s) == 0" a.val_c b.val_c
    | CInt, CFloat | CFloat, CInt ->
        Printf.sprintf "fcmp(%s, %s) == 0" (as_double a) (as_double b)
    | CStr, CStr ->
        Printf.sprintf "(%s) == (%s) && memcmp(%s, %s, %s) == 0" a.len_c b.len_c
          a.val_c b.val_c a.len_c
    | _ -> "0"
  in
  let an = null_of a and bn = null_of b in
  c_or (c_and [ an; bn ]) (c_and [ c_not an; c_not bn; same ])

(* Whether [Value.equal a b] implies equal folds.  Not for two floats,
   whose nan payloads fold apart, nor for an int against a float. *)
let fold_implied (a : cslot) (b : cslot) =
  match (a.ty, b.ty) with
  | CFloat, (CFloat | CInt) | CInt, CFloat -> false
  | _ -> true

(* [Value.compare a b] of two slots of one static type, as a C int. *)
let cmp_c (a : cslot) (b : cslot) =
  let typed =
    match a.ty with
    | CInt | CDate | CBool -> Printf.sprintf "icmp(%s, %s)" a.val_c b.val_c
    | CFloat -> Printf.sprintf "fcmp(%s, %s)" a.val_c b.val_c
    | CStr ->
        Printf.sprintf "scmp(%s, %s, %s, %s)" a.val_c a.len_c b.val_c b.len_c
    | CNull | CGone -> "0"
  in
  if a.ty = CNull || a.null_c = "0" then typed
  else
    (* null sorts first *)
    Printf.sprintf "((%s) | (%s)) ? (%s) - (%s) : %s" a.null_c b.null_c
      b.null_c a.null_c typed

(* ---------------- aggregates ---------------- *)

(* An aggregate's state, cut to the members its function reads: its step
   and its finished value, each given the state's lvalue prefix. *)
type agg = {
  amembers : member list;
  astep : string -> unit;
  afinish : string -> cslot;
}

(* Aggregate [j] over input slot [s].  In a keyed group every entry has
   stepped at least one row, so over a never-null input a sum needs no
   count and a min/max no flag: its first row is the one that created the
   entry ([fresh]). *)
let agg_of ctx ~keyed ~fresh j (a : Aggregate.t) (s : cslot option) =
  let c = Printf.sprintf "a%d_c" j and sm = Printf.sprintf "a%d_s" j in
  let count = { mty = "int64_t"; mname = c; msize = 8 } in
  let guard (s : cslot) stmt =
    if s.null_c = "0" then line ctx "%s" stmt
    else line ctx "if (!(%s)) { %s }" s.null_c stmt
  in
  let always v = { amembers = []; astep = ignore; afinish = (fun _ -> v) } in
  let counted f =
    {
      amembers = [ count ];
      astep = f;
      afinish = (fun p -> slot CInt "0" (p ^ c));
    }
  in
  match (a.Aggregate.func, s) with
  | Aggregate.Count_star, _ -> counted (fun p -> line ctx "%s%s++;" p c)
  | Aggregate.Count, Some { ty = CNull; _ } ->
      always (slot CInt "0" "INT64_C(0)")
  | Aggregate.Count, Some s ->
      counted (fun p -> guard s (Printf.sprintf "%s%s++;" p c))
  | ( (Aggregate.Sum | Aggregate.Avg | Aggregate.Min | Aggregate.Max),
      Some { ty = CNull; _ } ) ->
      always null_slot
  | (Aggregate.Sum | Aggregate.Avg), Some { ty = CStr; _ } ->
      unsupported "sum over strings"
  | (Aggregate.Sum | Aggregate.Avg), Some s ->
      let avg = a.Aggregate.func = Aggregate.Avg and fl = s.ty = CFloat in
      let never_empty = keyed && s.null_c = "0" in
      let has_count = avg || not never_empty in
      let sum =
        { mty = (if fl then "double" else "int64_t"); mname = sm; msize = 8 }
      in
      {
        amembers = (sum :: if has_count then [ count ] else []);
        astep =
          (fun p ->
            let add =
              if fl then Printf.sprintf "%s%s += %s;" p sm s.val_c
              else
                Printf.sprintf "%s%s = iadd(%s%s, %s);" p sm p sm (as_int63 s)
            in
            let tally =
              if has_count then Printf.sprintf "%s%s++; " p c else ""
            in
            guard s (tally ^ add));
        afinish =
          (fun p ->
            let null_c =
              if never_empty then "0" else Printf.sprintf "(%s%s == 0)" p c
            in
            if not avg then slot (if fl then CFloat else CInt) null_c (p ^ sm)
            else
              (* Aggregate.total: sum_f +. float_of_int sum_i *)
              slot CFloat null_c
                (if fl then
                   Printf.sprintf "((%s%s + 0.0) / (double)%s%s)" p sm p c
                 else
                   Printf.sprintf "((0.0 + (double)%s%s) / (double)%s%s)" p sm
                     p c));
      }
  | (Aggregate.Min | Aggregate.Max), Some s ->
      let dir = if a.Aggregate.func = Aggregate.Min then "<" else ">" in
      let best =
        { fty = s.ty; fnull = false; fname = Printf.sprintf "a%d_b" j }
      in
      let has = Printf.sprintf "a%d_h" j in
      let first = keyed && s.null_c = "0" in
      {
        amembers =
          (members best
          @
          if first then [] else [ { mty = "uint8_t"; mname = has; msize = 1 } ]
          );
        astep =
          (fun p ->
            let cur = load p best in
            let better =
              match s.ty with
              | CFloat ->
                  Printf.sprintf "fcmp(%s, %s) %s 0" s.val_c cur.val_c dir
              | CStr ->
                  Printf.sprintf "scmp(%s, %s, %s, %s) %s 0" s.val_c s.len_c
                    cur.val_c cur.len_c dir
              | _ -> Printf.sprintf "(%s) %s %s" (as_int63 s) dir cur.val_c
            in
            let set = store_c s p best in
            if first then line ctx "if (%s || %s) { %s }" fresh better set
            else
              guard s
                (Printf.sprintf "if (!%s%s || %s) { %s %s%s = 1; }" p has better
                   set p has));
        afinish =
          (fun p ->
            let v = load p best in
            let null_c = if first then "0" else Printf.sprintf "!%s%s" p has in
            { v with null_c });
      }
  | _, None -> unsupported "aggregate without input"

(* ---------------- operators ---------------- *)

(* Register a scanned table in the ABI: its row count and partition base
   pointers become locals, hoisted out of every loop. *)
let register_table ctx name rel =
  match
    List.find_opt (fun ((s : scanned), _) -> String.equal s.name name) ctx.tables
  with
  | Some (_, base) -> base
  | None ->
      let s = scanned_of name rel in
      let k = List.length ctx.tables in
      let base = ctx.nparts in
      if k >= max_tables then unsupported "too many tables";
      if base + Array.length s.widths > max_parts then
        unsupported "too many partitions";
      ctx.tables <- (s, base) :: ctx.tables;
      ctx.nparts <- base + Array.length s.widths;
      local ctx "const int64_t N%d = nrows[%d];" base k;
      Array.iteri
        (fun p _ ->
          local ctx "const unsigned char *const B%d = parts[%d];" (base + p)
            (base + p))
        s.widths;
      base

(* Column slots of a scan: partition base + row * width + field offset. *)
let scan_slots rel ~base ~row =
  let schema = Relation.schema rel in
  Array.init (Schema.arity schema) (fun a ->
      let attr = Schema.attr schema a in
      let p = Relation.part_of_attr rel a in
      let field off =
        Printf.sprintf "B%d + %s * %d + %d" (base + p) row
          (Relation.part_width rel p) off
      in
      let off = Relation.attr_offset rel a in
      let null_c =
        if attr.Schema.nullable then Printf.sprintf "((%s)[0] == 0)" (field off)
        else "0"
      in
      let data = field (if attr.Schema.nullable then off + 1 else off) in
      match attr.Schema.ty with
      | Value.Int -> slot CInt null_c (Printf.sprintf "ld64(%s)" data)
      | Value.Date -> slot CDate null_c (Printf.sprintf "ld64(%s)" data)
      | Value.Float -> slot CFloat null_c (Printf.sprintf "ldf(%s)" data)
      | Value.Bool -> slot CBool null_c (Printf.sprintf "((%s)[0] != 0)" data)
      | Value.Varchar n ->
          {
            ty = CStr;
            null_c;
            val_c = Printf.sprintf "(%s)" data;
            len_c = Printf.sprintf "slen(%s, %d)" data n;
          })

let arity ctx plan = Array.length (Physical.schema ctx.cat plan)

(* [base] with the columns [cols] marked needed as well. *)
let needing base cols =
  let need = Array.copy base in
  List.iter
    (fun c -> if c >= 0 && c < Array.length need then need.(c) <- true)
    cols;
  need

let expr_cols es = List.concat_map Expr.cols es

(* Positions of the needed columns in a compacted materialization. *)
let compact need =
  let pos = Array.make (Array.length need) (-1) and n = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        pos.(i) <- !n;
        incr n
      end)
    need;
  (pos, !n)

(* The typed fields of the needed columns [pos] of [slots]. *)
let fields_of slots pos =
  Array.mapi
    (fun i p ->
      if p < 0 then None
      else Some (field_of slots.(i) (Printf.sprintf "f%d" p)))
    pos

let field_members fs =
  List.concat_map members (List.filter_map Fun.id (Array.to_list fs))

let load_all e fs =
  Array.map (function None -> gone | Some f -> load e f) fs

(* Make room in heap array [arr] ([n] used, [cap] allocated) for one more
   element. *)
let reserve_one ctx ~arr ~n ~cap =
  line ctx "if (%s == %s) {" n cap;
  nest ctx (fun () ->
      line ctx "void *ne = grow(%s, &%s, sizeof *%s);" arr cap arr;
      line ctx "if (!ne) goto mrdb_oom;";
      line ctx "%s = ne;" arr);
  line ctx "}"

(* What a pipeline told its breaker: set by the breaker's [consume], which
   runs exactly once, and read when the breaker emits. *)
let consumed r =
  match !r with
  | Some v -> v
  | None -> unsupported "internal: pipeline not consumed"

(* The arguments passing key slot [s] to a [_find] parameter list, in the
   order of [members f]. *)
let key_args (s : cslot) f =
  (match f.fty with
  | CInt | CDate | CFloat -> [ s.val_c ]
  | CBool -> [ Printf.sprintf "(%s) != 0" s.val_c ]
  | CStr -> [ s.val_c; s.len_c ]
  | CNull | CGone -> [])
  @ if f.fnull then [ Printf.sprintf "(%s) != 0" s.null_c ] else []

(* A keyed group-by table: an insertion-ordered entry array plus an
   open-addressed [int32_t] index, local to this call so concurrent morsels
   in different domains cannot interfere.  [_find] returns the entry of an
   equal key (equal folds, then structurally equal keys) or appends a
   zeroed one, saying which in [*fresh]. *)
let cgroup_table ctx g ~own kfs =
  let entry_fold e =
    if own then kv_c (load e (List.hd kfs)) else e ^ "h"
  in
  let params =
    String.concat ""
      (List.map (fun m -> ", " ^ member_decl m) (List.concat_map members kfs))
  in
  let matches =
    c_and
      ((if own then [] else [ "e->h == h" ])
      @ List.map (fun f -> value_eq (load "e->" f) (load "" f)) kfs)
  in
  decl ctx
    "typedef struct { %s_ent *ents; int64_t n, cap; int32_t *idx; uint64_t \
     mask; } %s_tab;"
    g g;
  decl ctx
    {|static int %s_rehash(%s_tab *tb) {
  uint64_t m = tb->mask ? tb->mask * 2 + 1 : 1023;
  int32_t *idx = malloc((size_t)(m + 1) * sizeof *idx);
  if (!idx) return 0;
  memset(idx, 0xff, (size_t)(m + 1) * sizeof *idx);
  for (int64_t e = 0; e < tb->n; e++) {
    uint64_t s = hslot(%s) & m;
    while (idx[s] >= 0) s = (s + 1) & m;
    idx[s] = (int32_t)e;
  }
  free(tb->idx); tb->idx = idx; tb->mask = m;
  return 1;
}
static %s_ent *%s_find(%s_tab *tb, int64_t h%s, int *fresh) {
  if (2 * (uint64_t)(tb->n + 1) > tb->mask && !%s_rehash(tb)) return NULL;
  uint64_t s = hslot(h) & tb->mask;
  for (;;) {
    int32_t x = tb->idx[s];
    if (x < 0) break;
    %s_ent *e = &tb->ents[x];
    if (%s) { *fresh = 0; return e; }
    s = (s + 1) & tb->mask;
  }
  if (tb->n == tb->cap) {
    %s_ent *ne = grow(tb->ents, &tb->cap, sizeof *ne);
    if (!ne) return NULL;
    tb->ents = ne;
  }
  %s_ent *e = &tb->ents[tb->n];
  memset(e, 0, sizeof *e);
  %s
  tb->idx[s] = (int32_t)tb->n++;
  *fresh = 1;
  return e;
}|}
    g g
    (entry_fold "tb->ents[e].")
    g g g params g g matches g g
    (String.concat " "
       ((if own then [] else [ "e->h = h;" ])
       @ List.map (fun f -> store_c (load "" f) "e->" f) kfs));
  local ctx "%s_tab %s = { NULL, 0, 0, NULL, 0 };" g g;
  ctx.frees <- Printf.sprintf "free(%s.ents); free(%s.idx);" g g :: ctx.frees

(* Whether columns [cols] of [plan]'s rows read only the build side of
   the hash join at its root, seen through Selects and Projects: then each
   row's values of them are a function of the build entry it matched. *)
let rec build_only ctx (plan : Physical.t) cols =
  match plan with
  | Physical.Select { child; _ } -> build_only ctx child cols
  | Physical.Project { child; exprs } ->
      let used = List.filteri (fun i _ -> List.mem i cols) exprs in
      build_only ctx child (expr_cols (List.map fst used))
  | Physical.Hash_join { build; _ } ->
      let ba = arity ctx build in
      List.for_all (fun c -> c < ba) cols
  | _ -> false

(* Produce the rows of [plan] into [consume], data-centric style: each
   operator either extends the pipeline it is called in or ends it and
   starts a new one over its materialized state.  [need.(i)] says whether
   any consumer reads output column [i]; pipeline breakers materialize only
   needed columns.  Every produce call runs at the top level of
   [mrdb_query] and every [consume] is invoked exactly once.  [gid] asks
   the hash join at the root of [plan], under Selects and Projects, for a
   group index in each build entry: the join sets it to that index's
   lvalue in the matched entry before it consumes a row. *)
let rec cproduce ?gid ctx (plan : Physical.t) ~(need : bool array)
    ~(consume : cslot array -> unit) : unit =
  match plan with
  | Physical.Scan { table; access = Physical.Full_scan; post; _ } ->
      let rel = Catalog.find ctx.cat table in
      if Relation.encodings rel <> [] then unsupported "compressed encodings";
      let base = register_table ctx table rel in
      let t = fresh ctx "t" in
      let slots = scan_slots rel ~base ~row:t in
      line ctx "for (int64_t %s = 0; %s < N%d; %s++) {" t t base t;
      nest ctx (fun () ->
          match post with
          | None -> consume slots
          | Some pred ->
              let p = cexpr ctx slots pred in
              guarded ctx (truthy_c p) (fun () -> consume slots));
      line ctx "}"
  | Physical.Scan _ -> unsupported "index access"
  | Physical.Select { child; pred; _ } ->
      cproduce ?gid ctx child
        ~need:(needing need (Expr.cols pred))
        ~consume:(fun slots ->
          let p = cexpr ctx slots pred in
          guarded ctx (truthy_c p) (fun () -> consume slots))
  | Physical.Project { child; exprs } ->
      let used = List.filteri (fun i _ -> need.(i)) exprs in
      let child_need =
        needing
          (Array.make (arity ctx child) false)
          (expr_cols (List.map fst used))
      in
      cproduce ?gid ctx child ~need:child_need ~consume:(fun slots ->
          consume
            (Array.of_list
               (List.mapi
                  (fun i (e, _) -> if need.(i) then cexpr ctx slots e else gone)
                  exprs)))
  | Physical.Limit { child = Physical.Sort { child; keys }; n } ->
      csort ctx ~need ~child ~keys ~limit:(Some n) ~consume
  | Physical.Limit { child; n } ->
      let lim = fresh ctx "lim" in
      local ctx "int64_t %s = 0;" lim;
      cproduce ctx child ~need ~consume:(fun slots ->
          line ctx "if (%s >= %d) goto %s_done;" lim n lim;
          line ctx "%s++;" lim;
          consume slots);
      line ctx "%s_done: ;" lim
  | Physical.Group_by { child; keys; aggs; _ } ->
      cgroup ctx ~child ~keys ~aggs ~consume
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      cjoin ?gid ctx ~need ~build ~probe ~build_keys ~probe_keys ~consume
  | Physical.Sort { child; keys } ->
      csort ctx ~need ~child ~keys ~limit:None ~consume
  | Physical.Insert _ | Physical.Update _ -> unsupported "dml"

(* A keyed group-by directly over a hash join whose build side alone
   gives its keys is a groupjoin: each build entry caches the index of
   its group, -1 until the first row through that entry that reaches
   the group-by looks the group up.  Later rows through the entry step
   that group with no fold, [_find] or key compare, so groups and their
   order are those of the plain lookup. *)
and cgroup ctx ~child ~keys ~aggs ~consume =
  let g = fresh ctx "g" in
  let keyed = keys <> [] and isnew = g ^ "_new" in
  let gid = ref None in
  let gj =
    if keyed && build_only ctx child (expr_cols (List.map fst keys)) then
      Some gid
    else None
  in
  let child_need =
    needing
      (Array.make (arity ctx child) false)
      (expr_cols
         (List.map fst keys
         @ List.filter_map (fun (a : Aggregate.t) -> a.Aggregate.expr) aggs))
  in
  let shape = ref None in
  cproduce ?gid:gj ctx child ~need:child_need ~consume:(fun slots ->
      let ks = List.map (fun (e, _) -> cexpr ctx slots e) keys in
      let ags =
        List.mapi
          (fun j (a : Aggregate.t) ->
            agg_of ctx ~keyed ~fresh:isnew j a
              (Option.map (cexpr ctx slots) a.Aggregate.expr))
          aggs
      in
      let kfs = List.mapi (fun i s -> field_of s (Printf.sprintf "k%d" i)) ks in
      shape := Some (kfs, ags);
      let states = List.concat_map (fun a -> a.amembers) ags in
      if not keyed then begin
        (* global aggregate: the states are one local struct, no table *)
        decl_struct ctx (g ^ "_acc") states;
        local ctx "%s_acc %s_st = {0};" g g;
        List.iter (fun a -> a.astep (g ^ "_st.")) ags
      end
      else begin
        let own = own_fold ks in
        decl_struct ctx (g ^ "_ent")
          ((if own then [] else [ fold_member ])
          @ List.concat_map members kfs @ states);
        cgroup_table ctx g ~own kfs;
        let args = List.concat (List.map2 key_args ks kfs) in
        let find =
          Printf.sprintf "%s_find(&%s, %s%s, &%s)" g g (fold_c ks)
            (String.concat "" (List.map (fun a -> ", " ^ a) args))
            isnew
        in
        (match !gid with
        | None ->
            line ctx "int %s;" isnew;
            line ctx "%s_ent *%s_e = %s;" g g find;
            line ctx "if (!%s_e) goto mrdb_oom;" g
        | Some id ->
            ctx.groupjoins <- ctx.groupjoins + 1;
            line ctx "int %s = 0;" isnew;
            line ctx "%s_ent *%s_e;" g g;
            line ctx "if (%s >= 0) %s_e = &%s.ents[%s];" id g g id;
            line ctx "else {";
            nest ctx (fun () ->
                line ctx "if (!(%s_e = %s)) goto mrdb_oom;" g find;
                line ctx "%s = (int32_t)(%s_e - %s.ents);" id g g);
            line ctx "}");
        List.iter (fun a -> a.astep (g ^ "_e->")) ags
      end);
  let kfs, ags = consumed shape in
  let finish p = List.map (fun a -> a.afinish p) ags in
  if not keyed then begin
    (* one row, the init states' row on empty input *)
    line ctx "{";
    nest ctx (fun () -> consume (Array.of_list (finish (g ^ "_st."))));
    line ctx "}"
  end
  else begin
    (* emit groups in insertion order *)
    line ctx "for (int64_t %s_i = 0; %s_i < %s.n; %s_i++) {" g g g g;
    nest ctx (fun () ->
        line ctx "const %s_ent *%s_e = &%s.ents[%s_i];" g g g g;
        let p = g ^ "_e->" in
        consume (Array.of_list (List.map (load p) kfs @ finish p)));
    line ctx "}"
  end

(* Hash join: the build pipeline appends its needed columns (and the key
   fold, unless the key is its own) to an entry array; [int32_t] chains
   are then threaded through a bucket array back to front, so each chain
   lists its entries in build-insertion order.  The probe pipeline walks
   its key's chain and emits, in order, every entry whose fold agrees and
   whose keys are [Value.equal] — the match rule of [Runtime.Sim_hash].
   An own-fold build tracks its key range, and [jsize] makes its buckets
   direct-mapped when that range is dense.  With [gid], each entry also
   holds a group index for the group-by above (see [cgroup]). *)
and cjoin ?gid ctx ~need ~build ~probe ~build_keys ~probe_keys ~consume =
  let j = fresh ctx "j" in
  let ba = arity ctx build and pa = arity ctx probe in
  let nk = List.length build_keys in
  if nk = 0 || nk <> List.length probe_keys then unsupported "join keys";
  let check n k = if k < 0 || k >= n then unsupported "join key" in
  List.iter (check ba) build_keys;
  List.iter (check pa) probe_keys;
  let bneed = needing (Array.sub need 0 ba) build_keys in
  let pneed = needing (Array.sub need ba pa) probe_keys in
  let pos, _ = compact bneed in
  local ctx "%s_ent *%s_e = NULL; int64_t %s_n = 0, %s_cap = 0;" j j j j;
  local ctx "int32_t *%s_head = NULL, *%s_next = NULL; uint64_t %s_mask = 0;" j
    j j;
  local ctx "int64_t %s_lo = INT64_MAX, %s_hi = INT64_MIN; int %s_dense = 0;" j
    j j;
  ctx.frees <-
    Printf.sprintf "free(%s_e); free(%s_head); free(%s_next);" j j j
    :: ctx.frees;
  let gid_member = { mty = "int32_t"; mname = "gid"; msize = 4 } in
  let shape = ref None in
  cproduce ctx build ~need:bneed ~consume:(fun slots ->
      let fs = fields_of slots pos in
      let bks = List.map (fun k -> slots.(k)) build_keys in
      let own = own_fold bks in
      shape := Some (fs, own);
      decl_struct ctx (j ^ "_ent")
        ((if own then [] else [ fold_member ])
        @ (if gid = None then [] else [ gid_member ])
        @ field_members fs);
      reserve_one ctx ~arr:(j ^ "_e") ~n:(j ^ "_n") ~cap:(j ^ "_cap");
      line ctx "%s_ent *%s_w = &%s_e[%s_n++];" j j j j;
      Array.iteri
        (fun i f -> Option.iter (store ctx slots.(i) (j ^ "_w->")) f)
        fs;
      if gid <> None then line ctx "%s_w->gid = -1;" j;
      if own then begin
        let key = Option.get fs.(List.hd build_keys) in
        let k = kv_c (load (j ^ "_w->") key) in
        line ctx "if (%s < %s_lo) %s_lo = %s;" k j j k;
        line ctx "if (%s > %s_hi) %s_hi = %s;" k j j k
      end
      else line ctx "%s_w->h = %s;" j (fold_c bks));
  let fs, own = consumed shape in
  let bkeys e = List.map (fun k -> load e (Option.get fs.(k))) build_keys in
  let bucket h = Printf.sprintf "jslot(%s, %s_lo, %s_mask, %s_dense)" h j j j in
  line ctx "%s_dense = jsize(%s_n, %s_lo, %s_hi, &%s_mask);" j j j j j;
  line ctx "%s_head = malloc((size_t)(%s_mask + 2) * sizeof(int32_t));" j j;
  line ctx "%s_next = malloc((size_t)(%s_n + 1) * sizeof(int32_t));" j j;
  line ctx "if (!%s_head || !%s_next) goto mrdb_oom;" j j;
  line ctx "memset(%s_head, 0xff, (size_t)(%s_mask + 2) * sizeof(int32_t));" j
    j;
  line ctx "for (int32_t e = (int32_t)%s_n - 1; e >= 0; e--) {" j;
  nest ctx (fun () ->
      let e = Printf.sprintf "%s_e[e]." j in
      line ctx "uint64_t s = %s;"
        (bucket (if own then kv_c (List.hd (bkeys e)) else e ^ "h"));
      line ctx "%s_next[e] = %s_head[s]; %s_head[s] = e;" j j j);
  line ctx "}";
  cproduce ctx probe ~need:pneed ~consume:(fun pslots ->
      let pks =
        List.mapi
          (fun i k -> bind ctx pslots.(k) (Printf.sprintf "%s_p%d" j i))
          probe_keys
      in
      line ctx "const int64_t %s_ph = %s;" j (fold_c pks);
      line ctx
        "for (int32_t %s_i = %s_head[%s]; %s_i >= 0; %s_i = %s_next[%s_i]) {" j
        j
        (bucket (j ^ "_ph"))
        j j j j;
      nest ctx (fun () ->
          let m = j ^ "_m->" in
          line ctx "%s%s_ent *%s_m = &%s_e[%s_i];"
            (if gid = None then "const " else "")
            j j j j;
          let bks = bkeys m in
          let fold_eq =
            if not own then [ Printf.sprintf "%sh == %s_ph" m j ]
            else if List.for_all2 fold_implied bks pks then []
            else [ Printf.sprintf "%s == %s_ph" (kv_c (List.hd bks)) j ]
          in
          let skip = c_not (c_and (fold_eq @ List.map2 value_eq bks pks)) in
          if skip <> "0" then line ctx "if (%s) continue;" skip;
          Option.iter (fun r -> r := Some (m ^ "gid")) gid;
          consume (Array.append (load_all m fs) pslots));
      line ctx "}")

(* Sort: buffer the needed columns with their arrival number, qsort by the
   keys under [Value.compare] with the arrival number as the last key —
   the stable order of the interpreter's [Array.stable_sort] — and emit.
   Under a [LIMIT k] the buffer is a bounded max-heap of the k first rows
   in that order: a row enters only ahead of the heap's last, so the
   emitted rows are exactly the sorted prefix. *)
and csort ctx ~need ~child ~keys ~limit ~consume =
  let s = fresh ctx "s" in
  let n = arity ctx child in
  List.iter
    (fun (col, _) ->
      if col < 0 || col >= n then unsupported "sort key out of range")
    keys;
  let cneed = needing need (List.map fst keys) in
  let pos, _ = compact cneed in
  local ctx "%s_row *%s_r = NULL; int64_t %s_n = 0, %s_cap = 0;" s s s s;
  if Option.is_some limit then local ctx "int64_t %s_q = 0;" s;
  ctx.frees <- Printf.sprintf "free(%s_r);" s :: ctx.frees;
  let shape = ref None in
  cproduce ctx child ~need:cneed ~consume:(fun slots ->
      let fs = fields_of slots pos in
      shape := Some fs;
      decl_struct ctx (s ^ "_row")
        ({ mty = "int32_t"; mname = "seq"; msize = 4 } :: field_members fs);
      decl ctx "static int %s_cmp(const void *pa, const void *pb) {" s;
      decl ctx "  const %s_row *a = pa, *b = pb;" s;
      decl ctx "  int c;";
      List.iter
        (fun (col, (dir : Relalg.Plan.dir)) ->
          let f = Option.get fs.(col) in
          let x, y =
            match dir with Asc -> ("a->", "b->") | Desc -> ("b->", "a->")
          in
          let c = cmp_c (load x f) (load y f) in
          if c <> "0" then decl ctx "  if ((c = (%s)) != 0) return c;" c)
        keys;
      decl ctx "  return icmp(a->seq, b->seq);";
      decl ctx "}";
      if Option.is_some limit then
        decl ctx
          {|static void %s_up(%s_row *h, int64_t i) {
  %s_row x = h[i];
  while (i > 0) {
    int64_t p = (i - 1) / 2;
    if (%s_cmp(&h[p], &x) >= 0) break;
    h[i] = h[p]; i = p;
  }
  h[i] = x;
}
static void %s_down(%s_row *h, int64_t n) {
  %s_row x = h[0];
  int64_t i = 0;
  for (;;) {
    int64_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && %s_cmp(&h[c + 1], &h[c]) > 0) c++;
    if (%s_cmp(&h[c], &x) <= 0) break;
    h[i] = h[c]; i = c;
  }
  h[i] = x;
}|}
          s s s s s s s s s;
      reserve_one ctx ~arr:(s ^ "_r") ~n:(s ^ "_n") ~cap:(s ^ "_cap");
      line ctx "%s_row *%s_w = &%s_r[%s_n];" s s s s;
      (match limit with
      | None -> line ctx "%s_w->seq = (int32_t)%s_n++;" s s
      | Some _ ->
          (* arrivals, unlike kept rows, are not bounded by the buffer *)
          line ctx "if (%s_q == INT32_MAX) goto mrdb_oom;" s;
          line ctx "%s_w->seq = (int32_t)%s_q++;" s s);
      Array.iteri
        (fun i f -> Option.iter (store ctx slots.(i) (s ^ "_w->")) f)
        fs;
      match limit with
      | None -> ()
      | Some k ->
          line ctx "if (%s_n < INT64_C(%d)) { %s_up(%s_r, %s_n); %s_n++; }" s
            k s s s s;
          line ctx
            "else if (%s_cmp(%s_w, %s_r) < 0) { %s_r[0] = *%s_w; %s_down(%s_r, \
             %s_n); }"
            s s s s s s s s);
  let fs = consumed shape in
  line ctx "if (%s_n > 1) qsort(%s_r, (size_t)%s_n, sizeof *%s_r, %s_cmp);" s s s
    s s;
  line ctx "for (int64_t %s_i = 0; %s_i < %s_n; %s_i++) {" s s s s;
  nest ctx (fun () -> consume (load_all (Printf.sprintf "%s_r[%s_i]." s s) fs));
  line ctx "}"

(* ---------------- the translation unit ---------------- *)

let emit_unit cat (plan : Physical.t) ~params =
  try
    let schema = Physical.schema cat plan in
    let out_arity = Array.length schema in
    if out_arity = 0 then unsupported "empty output schema";
    if out_arity > 4096 then unsupported "output arity";
    let ctx =
      {
        cat;
        ptypes = Array.map ty_of_value params;
        decls = Buffer.create 2048;
        locals = Buffer.create 1024;
        body = Buffer.create 8192;
        indent = 1;
        tmp = 0;
        frees = [];
        tables = [];
        nparts = 0;
        loaded = [];
        tagged = 0;
        groupjoins = 0;
      }
    in
    cproduce ctx plan ~need:(Array.make out_arity true) ~consume:(fun slots ->
        if Array.length slots <> out_arity then
          unsupported "arity mismatch in codegen";
        line ctx "{";
        nest ctx (fun () ->
            line ctx "mv r[%d];" out_arity;
            Array.iteri
              (fun i s -> pack_mv ctx s (Printf.sprintf "r[%d]" i))
              slots;
            line ctx "if (!put_row(out, r, %d)) goto mrdb_oom;" out_arity;
            line ctx "rowcount++;");
        line ctx "}");
    let b = Buffer.create 16384 in
    Buffer.add_string b prelude;
    Buffer.add_char b '\n';
    Buffer.add_buffer b ctx.decls;
    Buffer.add_string b
      "\n\
       int64_t mrdb_query(const unsigned char *const *parts, const int64_t \
       *nrows,\n\
      \                   const unsigned char *params, mrdb_out *out) {\n\
      \  int64_t rowcount = 0, ret = -1;\n\
      \  (void)parts; (void)nrows; (void)params;\n";
    Buffer.add_buffer b ctx.locals;
    Buffer.add_string b "  if (!out_reserve(out, 8)) goto mrdb_oom;\n";
    Buffer.add_string b "  out->len = 8;\n";
    Buffer.add_buffer b ctx.body;
    Buffer.add_string b
      "  memcpy(out->buf, &rowcount, 8);\n\
      \  ret = out->len;\n\
      \  goto mrdb_done;\n\
       mrdb_oom:\n\
      \  ret = -1;\n\
       mrdb_done:\n";
    List.iter (fun f -> Buffer.add_string b ("  " ^ f ^ "\n")) ctx.frees;
    Buffer.add_string b "  return ret;\n}\n";
    let tables = Array.of_list (List.rev_map fst ctx.tables) in
    Ok
      {
        source = Buffer.contents b;
        tables;
        out_arity;
        tagged_entry_fields = ctx.tagged;
        groupjoins = ctx.groupjoins;
      }
  with Unsupported msg -> Error msg
