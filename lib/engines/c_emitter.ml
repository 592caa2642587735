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

type unit_info = { source : string; tables : scanned array; out_arity : int }

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
typedef struct { int64_t count; int64_t sum_i; double sum_f; mv best; } agg_st;
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
static inline uint32_t slen(const unsigned char *p, uint32_t w) {
  const unsigned char *z = memchr(p, 0, w);
  return z ? (uint32_t)(z - p) : w;
}
static inline const unsigned char *sptr(const mv *v) { return (const unsigned char *)(intptr_t)v->bits; }

/* Hashing reproduces Hash_index.key_of_values: a 63-bit fold of raw value
   bits (floats by their IEEE bits less the top one, strings by FNV-1a).
   Group keys are equal iff the folds agree and the values are
   structurally equal (OCaml polymorphic equality on Value.t: same
   constructor; nan = nan and -0. = 0. under compare) — so +0./-0. merge,
   and nans merge when their low 63 bits agree, exactly like the
   interpreter's aggregation table. */
static int64_t fnv(const unsigned char *p, uint32_t n) {
  uint64_t h = UINT64_C(0x3bf29ce484222325);
  for (uint32_t i = 0; i < n; i++) {
    h ^= p[i];
    h = (h * UINT64_C(0x100000001b3)) & UINT64_C(0x3fffffffffffffff);
  }
  return (int64_t)h;
}
static inline int64_t kv63(const mv *v) {
  switch (v->tag) {
  case 0: return -(INT64_C(1) << 61); /* Null: OCaml min_int / 2 */
  case 2: return w63(v->bits);        /* float: truncated IEEE bits */
  case 5: return fnv(sptr(v), v->len);
  default: return v->bits;            /* int/date/bool payloads */
  }
}
static inline int64_t mv_hash(const mv *key, int nk) {
  int64_t h = 0;
  for (int i = 0; i < nk; i++)
    h = w63((int64_t)((uint64_t)h * 1000003u)) ^ kv63(&key[i]);
  return h;
}
/* bucket choice only: equality always rechecks the full fold */
static inline uint64_t hslot(int64_t h) {
  uint64_t x = (uint64_t)h;
  x ^= x >> 33; x *= UINT64_C(0xff51afd7ed558ccd); x ^= x >> 33;
  return x;
}
/* structural equality; callers compare the folds first */
static inline int mv_same(const mv *a, const mv *b, int nk) {
  for (int i = 0; i < nk; i++) {
    if (a[i].tag != b[i].tag) return 0;
    switch (a[i].tag) {
    case 0: break;
    case 2: if (fcmp(bitsd(a[i].bits), bitsd(b[i].bits)) != 0) return 0; break;
    case 5:
      if (a[i].len != b[i].len || memcmp(sptr(&a[i]), sptr(&b[i]), a[i].len) != 0) return 0;
      break;
    default: if (a[i].bits != b[i].bits) return 0;
    }
  }
  return 1;
}

/* Value.compare: same-constructor order, int/date and int/float mixes by
   number, everything else by constructor rank. */
static inline int rank(int tag) {
  static const int r[6] = { 0, 2, 3, 1, 4, 5 };
  return r[tag];
}
static int mv_cmp(const mv *a, const mv *b) {
  int ta = a->tag, tb = b->tag;
  if (ta == tb) {
    switch (ta) {
    case 0: return 0;
    case 2: return fcmp(bitsd(a->bits), bitsd(b->bits));
    case 5: {
      uint32_t la = a->len, lb = b->len;
      int c = memcmp(sptr(a), sptr(b), la < lb ? la : lb);
      if (c) return c < 0 ? -1 : 1;
      return (la > lb) - (la < lb);
    }
    default: return icmp(a->bits, b->bits);
    }
  }
  if ((ta == 1 && tb == 4) || (ta == 4 && tb == 1)) return icmp(a->bits, b->bits);
  if (ta == 1 && tb == 2) return fcmp((double)a->bits, bitsd(b->bits));
  if (ta == 2 && tb == 1) return fcmp(bitsd(a->bits), (double)b->bits);
  return icmp(rank(ta), rank(tb));
}

/* Grow a heap array to hold at least one more element; NULL when out of
   memory (the old block stays valid and is freed on exit). */
static void *grow(void *p, int64_t *cap, size_t elt) {
  int64_t ncap = *cap ? *cap * 2 : 64;
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
        let n = fresh ctx "u" in
        line ctx "int %s = (%s) || (%s);" n sa.null_c sb.null_c;
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

(* Pack a slot into an [mv] lvalue.  Null payloads are forced to 0 so
   equal keys are bit-equal; only strings set the length. *)
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

(* A slot reading back a packed [mv] lvalue of known static type. *)
let mv_slot ty mv_c =
  let null_c = Printf.sprintf "(%s.tag == 0)" mv_c in
  match ty with
  | CGone -> gone
  | CNull -> null_slot
  | CInt | CDate -> slot ty null_c (mv_c ^ ".bits")
  | CFloat -> slot ty null_c (Printf.sprintf "bitsd(%s.bits)" mv_c)
  | CBool -> slot ty null_c (Printf.sprintf "(%s.bits != 0)" mv_c)
  | CStr ->
      let val_c = Printf.sprintf "sptr(&%s)" mv_c in
      { ty; null_c; val_c; len_c = mv_c ^ ".len" }

(* ---------------- aggregates ---------------- *)

(* Accumulate aggregate [a] into state lvalue [st] from input slot [s]. *)
let emit_agg_step ctx st (a : Aggregate.t) (s : cslot option) =
  match (a.Aggregate.func, s) with
  | Aggregate.Count_star, _ -> line ctx "%s.count++;" st
  | Aggregate.Count, Some s ->
      if s.ty <> CNull then line ctx "if (!(%s)) %s.count++;" s.null_c st
  | (Aggregate.Sum | Aggregate.Avg), Some s -> (
      match s.ty with
      | CNull -> ()
      | CFloat ->
          line ctx "if (!(%s)) { %s.count++; %s.sum_f += %s; }" s.null_c st st
            s.val_c
      | CInt | CDate | CBool ->
          line ctx "if (!(%s)) { %s.count++; %s.sum_i = iadd(%s.sum_i, %s); }"
            s.null_c st st st (as_int63 s)
      | CStr | CGone -> unsupported "sum over strings")
  | (Aggregate.Min | Aggregate.Max), Some s -> (
      let dir = if a.Aggregate.func = Aggregate.Min then "<" else ">" in
      match s.ty with
      | CNull -> ()
      | CFloat ->
          line ctx
            "if (!(%s) && (%s.best.tag == 0 || fcmp(%s, bitsd(%s.best.bits)) \
             %s 0)) { %s.best.tag = 2; %s.best.bits = dbits(%s); }"
            s.null_c st s.val_c st dir st st s.val_c
      | CInt | CDate | CBool ->
          let v = as_int63 s in
          line ctx
            "if (!(%s) && (%s.best.tag == 0 || (%s) %s %s.best.bits)) { \
             %s.best.tag = %d; %s.best.bits = %s; }"
            s.null_c st v dir st st (tag_of s.ty) st v
      | CStr ->
          let m = fresh ctx "m" in
          line ctx "{";
          nest ctx (fun () ->
              line ctx "mv %s;" m;
              pack_mv ctx s m;
              line ctx
                "if (%s.tag && (%s.best.tag == 0 || mv_cmp(&%s, &%s.best) %s \
                 0)) %s.best = %s;"
                m st m st dir st m);
          line ctx "}"
      | CGone -> unsupported "internal: column not materialized")
  | _, None -> unsupported "aggregate without input"

(* Write the finished value of aggregate [a] into mv variable [dst];
   returns its static type. *)
let emit_agg_finish ctx st (a : Aggregate.t) ~input_ty dst =
  match a.Aggregate.func with
  | Aggregate.Count_star | Aggregate.Count ->
      line ctx "%s.tag = 1; %s.bits = %s.count;" dst dst st;
      CInt
  | Aggregate.Sum ->
      let tag, bits, ty =
        if input_ty = CFloat then (2, Printf.sprintf "dbits(%s.sum_f)" st, CFloat)
        else (1, st ^ ".sum_i", CInt)
      in
      line ctx
        "if (%s.count == 0) { %s.tag = 0; %s.bits = 0; } else { %s.tag = %d; \
         %s.bits = %s; }"
        st dst dst dst tag dst bits;
      ty
  | Aggregate.Avg ->
      line ctx
        "if (%s.count == 0) { %s.tag = 0; %s.bits = 0; } else { %s.tag = 2; \
         %s.bits = dbits((%s.sum_f + (double)%s.sum_i) / (double)%s.count); }"
        st dst dst dst dst st st st;
      CFloat
  | Aggregate.Min | Aggregate.Max ->
      line ctx "%s = %s.best;" dst st;
      input_ty

(* Step every aggregate of a group; returns their input types. *)
let agg_steps ctx slots aggs state =
  List.mapi
    (fun j (a : Aggregate.t) ->
      let s = Option.map (fun e -> cexpr ctx slots e) a.Aggregate.expr in
      emit_agg_step ctx (state j) a s;
      match s with Some s -> s.ty | None -> CNull)
    aggs
  |> Array.of_list

let agg_finishes ctx aggs state ~input_tys ~prefix =
  List.mapi
    (fun j (a : Aggregate.t) ->
      let dst = Printf.sprintf "%s_f%d" prefix j in
      line ctx "mv %s;" dst;
      let ty = emit_agg_finish ctx (state j) a ~input_ty:input_tys.(j) dst in
      mv_slot ty dst)
    aggs

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

(* Make room in heap array [arr] ([n] used, [cap] allocated) for one more
   element. *)
let reserve_one ctx ~arr ~n ~cap =
  line ctx "if (%s == %s) {" n cap;
  nest ctx (fun () ->
      line ctx "void *ne = grow(%s, &%s, sizeof *%s);" arr cap arr;
      line ctx "if (!ne) goto mrdb_oom;";
      line ctx "%s = ne;" arr);
  line ctx "}"

(* Produce the rows of [plan] into [consume], data-centric style: each
   operator either extends the pipeline it is called in or ends it and
   starts a new one over its materialized state.  [need.(i)] says whether
   any consumer reads output column [i]; pipeline breakers materialize only
   needed columns.  Every produce call runs at the top level of
   [mrdb_query] and every [consume] is invoked exactly once. *)
let rec cproduce ctx (plan : Physical.t) ~(need : bool array)
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
      cproduce ctx child
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
      cproduce ctx child ~need:child_need ~consume:(fun slots ->
          consume
            (Array.of_list
               (List.mapi
                  (fun i (e, _) -> if need.(i) then cexpr ctx slots e else gone)
                  exprs)))
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
      cjoin ctx ~need ~build ~probe ~build_keys ~probe_keys ~consume
  | Physical.Sort { child; keys } -> csort ctx ~need ~child ~keys ~consume
  | Physical.Insert _ | Physical.Update _ -> unsupported "dml"

and cgroup ctx ~child ~keys ~aggs ~consume =
  let g = fresh ctx "g" in
  let na = List.length aggs in
  let child_need =
    needing
      (Array.make (arity ctx child) false)
      (expr_cols
         (List.map fst keys
         @ List.filter_map (fun (a : Aggregate.t) -> a.Aggregate.expr) aggs))
  in
  let input_tys = ref [||] in
  if keys = [] then begin
    (* global aggregate: register accumulators, no table; emits exactly one
       row, matching the interpreter's init-state row on empty input *)
    local ctx "agg_st %s_st[%d] = {{0}};" g (max 1 na);
    let state j = Printf.sprintf "%s_st[%d]" g j in
    cproduce ctx child ~need:child_need ~consume:(fun slots ->
        input_tys := agg_steps ctx slots aggs state);
    line ctx "{";
    nest ctx (fun () ->
        consume
          (Array.of_list
             (agg_finishes ctx aggs state ~input_tys:!input_tys ~prefix:g)));
    line ctx "}"
  end
  else begin
    (* keyed group-by: an insertion-ordered entry array plus an
       open-addressed index, local to this call so concurrent morsels in
       different domains cannot interfere *)
    let nk = List.length keys in
    decl ctx "typedef struct { int64_t h; mv key[%d]; agg_st st[%d]; } %s_ent;"
      nk (max 1 na) g;
    decl ctx
      "typedef struct { %s_ent *ents; int64_t n, cap; int64_t *idx; uint64_t \
       mask; } %s_tab;"
      g g;
    decl ctx
      {|static int %s_rehash(%s_tab *tb) {
  uint64_t m = tb->mask * 2 + 1;
  int64_t *idx = malloc((size_t)(m + 1) * sizeof *idx);
  if (!idx) return 0;
  for (uint64_t i = 0; i <= m; i++) idx[i] = -1;
  for (int64_t e = 0; e < tb->n; e++) {
    uint64_t h = hslot(tb->ents[e].h) & m;
    while (idx[h] >= 0) h = (h + 1) & m;
    idx[h] = e;
  }
  free(tb->idx); tb->idx = idx; tb->mask = m;
  return 1;
}
static %s_ent *%s_find(%s_tab *tb, const mv *key) {
  if (2 * (uint64_t)(tb->n + 1) > tb->mask && !%s_rehash(tb)) return NULL;
  int64_t kh = mv_hash(key, %d);
  uint64_t h = hslot(kh) & tb->mask;
  for (;;) {
    int64_t e = tb->idx[h];
    if (e < 0) break;
    if (tb->ents[e].h == kh && mv_same(tb->ents[e].key, key, %d))
      return &tb->ents[e];
    h = (h + 1) & tb->mask;
  }
  if (tb->n == tb->cap) {
    %s_ent *ne = grow(tb->ents, &tb->cap, sizeof *ne);
    if (!ne) return NULL;
    tb->ents = ne;
  }
  %s_ent *e = &tb->ents[tb->n];
  e->h = kh;
  memcpy(e->key, key, sizeof e->key);
  memset(e->st, 0, sizeof e->st);
  tb->idx[h] = tb->n++;
  return e;
}|}
      g g g g g g nk nk g g;
    local ctx "%s_tab %s = { NULL, 0, 0, NULL, 0 };" g g;
    ctx.frees <- Printf.sprintf "free(%s.ents); free(%s.idx);" g g :: ctx.frees;
    line ctx "%s.mask = 1023; %s.idx = malloc(1024 * sizeof(int64_t));" g g;
    line ctx "if (!%s.idx) goto mrdb_oom;" g;
    line ctx "for (int i = 0; i < 1024; i++) %s.idx[i] = -1;" g;
    let key_tys = ref [||] in
    cproduce ctx child ~need:child_need ~consume:(fun slots ->
        let ks = List.map (fun (e, _) -> cexpr ctx slots e) keys in
        key_tys := Array.of_list (List.map (fun s -> s.ty) ks);
        line ctx "mv %s_k[%d];" g nk;
        List.iteri
          (fun i s -> pack_mv ctx s (Printf.sprintf "%s_k[%d]" g i))
          ks;
        line ctx "%s_ent *%s_e = %s_find(&%s, %s_k);" g g g g g;
        line ctx "if (!%s_e) goto mrdb_oom;" g;
        input_tys :=
          agg_steps ctx slots aggs (Printf.sprintf "%s_e->st[%d]" g));
    (* emit groups in insertion order *)
    line ctx "for (int64_t %s_i = 0; %s_i < %s.n; %s_i++) {" g g g g;
    nest ctx (fun () ->
        line ctx "const %s_ent *%s_e = &%s.ents[%s_i];" g g g g;
        let key_slots =
          Array.to_list
            (Array.mapi
               (fun i ty -> mv_slot ty (Printf.sprintf "%s_e->key[%d]" g i))
               !key_tys)
        in
        let agg_slots =
          agg_finishes ctx aggs
            (Printf.sprintf "%s_e->st[%d]" g)
            ~input_tys:!input_tys ~prefix:g
        in
        consume (Array.of_list (key_slots @ agg_slots)));
    line ctx "}"
  end

(* Hash join: the build pipeline appends its needed columns and the key
   fold to an entry array; chains are then threaded through a bucket array
   back to front, so each chain lists its entries in build-insertion
   order.  The probe pipeline walks its key's chain and emits, in order,
   every entry whose fold agrees and whose keys are [Value.equal] — the
   match rule of [Runtime.Sim_hash]. *)
and cjoin ctx ~need ~build ~probe ~build_keys ~probe_keys ~consume =
  let j = fresh ctx "j" in
  let ba = arity ctx build and pa = arity ctx probe in
  let nk = List.length build_keys in
  if nk = 0 || nk <> List.length probe_keys then unsupported "join keys";
  let check n k = if k < 0 || k >= n then unsupported "join key" in
  List.iter (check ba) build_keys;
  List.iter (check pa) probe_keys;
  let bneed = needing (Array.sub need 0 ba) build_keys in
  let pneed = needing (Array.sub need ba pa) probe_keys in
  let pos, width = compact bneed in
  decl ctx "typedef struct { int64_t h; mv v[%d]; } %s_ent;" (max 1 width) j;
  local ctx "%s_ent *%s_e = NULL; int64_t %s_n = 0, %s_cap = 0;" j j j j;
  local ctx "int64_t *%s_head = NULL, *%s_next = NULL; uint64_t %s_mask = 15;" j
    j j;
  ctx.frees <-
    Printf.sprintf "free(%s_e); free(%s_head); free(%s_next);" j j j
    :: ctx.frees;
  let btys = Array.make ba CGone in
  cproduce ctx build ~need:bneed ~consume:(fun slots ->
      reserve_one ctx ~arr:(j ^ "_e") ~n:(j ^ "_n") ~cap:(j ^ "_cap");
      line ctx "%s_ent *%s_w = &%s_e[%s_n++];" j j j j;
      Array.iteri
        (fun i p ->
          if p >= 0 then begin
            btys.(i) <- slots.(i).ty;
            pack_mv ctx slots.(i) (Printf.sprintf "%s_w->v[%d]" j p)
          end)
        pos;
      line ctx "mv %s_bk[%d];" j nk;
      List.iteri
        (fun i k -> line ctx "%s_bk[%d] = %s_w->v[%d];" j i j pos.(k))
        build_keys;
      line ctx "%s_w->h = mv_hash(%s_bk, %d);" j j nk);
  line ctx "while (%s_mask + 1 < 2 * (uint64_t)%s_n) %s_mask = %s_mask * 2 + 1;"
    j j j j;
  line ctx "%s_head = malloc((size_t)(%s_mask + 1) * sizeof(int64_t));" j j;
  line ctx "%s_next = malloc((size_t)(%s_n + 1) * sizeof(int64_t));" j j;
  line ctx "if (!%s_head || !%s_next) goto mrdb_oom;" j j;
  line ctx "for (uint64_t i = 0; i <= %s_mask; i++) %s_head[i] = -1;" j j;
  line ctx "for (int64_t e = %s_n - 1; e >= 0; e--) {" j;
  nest ctx (fun () ->
      line ctx "uint64_t s = hslot(%s_e[e].h) & %s_mask;" j j;
      line ctx "%s_next[e] = %s_head[s]; %s_head[s] = e;" j j j);
  line ctx "}";
  cproduce ctx probe ~need:pneed ~consume:(fun pslots ->
      line ctx "mv %s_pk[%d];" j nk;
      List.iteri
        (fun i k -> pack_mv ctx pslots.(k) (Printf.sprintf "%s_pk[%d]" j i))
        probe_keys;
      line ctx "int64_t %s_ph = mv_hash(%s_pk, %d);" j j nk;
      line ctx
        "for (int64_t %s_i = %s_head[hslot(%s_ph) & %s_mask]; %s_i >= 0; %s_i \
         = %s_next[%s_i]) {"
        j j j j j j j j;
      nest ctx (fun () ->
          line ctx "const %s_ent *%s_m = &%s_e[%s_i];" j j j j;
          line ctx "if (%s_m->h != %s_ph) continue;" j j;
          List.iteri
            (fun i k ->
              line ctx "if (mv_cmp(&%s_m->v[%d], &%s_pk[%d]) != 0) continue;" j
                pos.(k) j i)
            build_keys;
          let bslots =
            Array.mapi
              (fun i p ->
                if p < 0 then gone
                else mv_slot btys.(i) (Printf.sprintf "%s_m->v[%d]" j p))
              pos
          in
          consume (Array.append bslots pslots));
      line ctx "}")

(* Sort: buffer the needed columns with their arrival number, qsort by the
   keys under [Value.compare] with the arrival number as the last key —
   the stable order of the interpreter's [Array.stable_sort] — and emit. *)
and csort ctx ~need ~child ~keys ~consume =
  let s = fresh ctx "s" in
  let n = arity ctx child in
  let cneed = needing need (List.map fst keys) in
  let pos, width = compact cneed in
  decl ctx "typedef struct { int64_t seq; mv v[%d]; } %s_row;" (max 1 width) s;
  decl ctx "static int %s_cmp(const void *pa, const void *pb) {" s;
  decl ctx "  const %s_row *a = pa, *b = pb;" s;
  decl ctx "  int c;";
  List.iter
    (fun (col, (dir : Relalg.Plan.dir)) ->
      if col < 0 || col >= n then unsupported "sort key out of range";
      let x, y = match dir with Asc -> ("a", "b") | Desc -> ("b", "a") in
      decl ctx "  if ((c = mv_cmp(&%s->v[%d], &%s->v[%d])) != 0) return c;" x
        pos.(col) y pos.(col))
    keys;
  decl ctx "  return icmp(a->seq, b->seq);";
  decl ctx "}";
  local ctx "%s_row *%s_r = NULL; int64_t %s_n = 0, %s_cap = 0;" s s s s;
  ctx.frees <- Printf.sprintf "free(%s_r);" s :: ctx.frees;
  let tys = Array.make n CGone in
  cproduce ctx child ~need:cneed ~consume:(fun slots ->
      reserve_one ctx ~arr:(s ^ "_r") ~n:(s ^ "_n") ~cap:(s ^ "_cap");
      line ctx "%s_row *%s_w = &%s_r[%s_n];" s s s s;
      line ctx "%s_w->seq = %s_n++;" s s;
      Array.iteri
        (fun i p ->
          if p >= 0 then begin
            tys.(i) <- slots.(i).ty;
            pack_mv ctx slots.(i) (Printf.sprintf "%s_w->v[%d]" s p)
          end)
        pos);
  line ctx "if (%s_n > 1) qsort(%s_r, (size_t)%s_n, sizeof *%s_r, %s_cmp);" s s s
    s s;
  line ctx "for (int64_t %s_i = 0; %s_i < %s_n; %s_i++) {" s s s s;
  nest ctx (fun () ->
      consume
        (Array.mapi
           (fun i p ->
             if p < 0 then gone
             else mv_slot tys.(i) (Printf.sprintf "%s_r[%s_i].v[%d]" s s p))
           pos));
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
    Ok { source = Buffer.contents b; tables; out_arity }
  with Unsupported msg -> Error msg
