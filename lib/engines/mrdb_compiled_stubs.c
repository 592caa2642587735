/* FFI for compiled query pipelines.
 *
 * A plan is emitted as a self-contained C99 translation unit, built with
 * the system cc into a shared object, and entered through
 *
 *   int64_t mrdb_query(const unsigned char *const *parts,
 *                      const int64_t *nrows, const unsigned char *params,
 *                      mrdb_out *out);
 *
 * [parts] are the partition payloads of every scanned table, each offset
 * to its view's first row; [nrows] the row count of each scanned table;
 * [params] the run-time parameter records.  The generated code grows
 * [out]'s malloc'd buffer itself and returns the result size (or -1 when
 * out of memory), so one call serves a result of any size; the stub
 * copies it into an OCaml bytes value once and frees the buffer.
 *
 * The call stub builds the pointer arrays on the C stack without
 * allocating on the OCaml heap, so nothing can move during the call.  The
 * generated code runs without releasing the domain lock: keeping the lock
 * keeps the Bytes pointers stable without pinning.
 */

#include <dlfcn.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define MRDB_MAX_PARTS 256
#define MRDB_MAX_TABLES 64

CAMLprim value mrdb_dlopen_stub(value path)
{
  CAMLparam1(path);
  void *h = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value mrdb_dlsym_stub(value handle, value name)
{
  CAMLparam2(handle, name);
  void *h = (void *)Nativeint_val(handle);
  void *fn = h ? dlsym(h, String_val(name)) : NULL;
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value mrdb_dlclose_stub(value handle)
{
  CAMLparam1(handle);
  void *h = (void *)Nativeint_val(handle);
  if (h) dlclose(h);
  CAMLreturn(Val_unit);
}

typedef struct { unsigned char *buf; int64_t len, cap; } mrdb_out;

typedef int64_t (*mrdb_query_fn)(const unsigned char *const *parts,
                                 const int64_t *nrows,
                                 const unsigned char *params,
                                 mrdb_out *out);

/* Returns the result bytes, or an empty bytes value when the generated
   code ran out of memory. */
CAMLprim value mrdb_call_query_stub(value fn, value parts, value offs,
                                    value nrows, value params)
{
  CAMLparam5(fn, parts, offs, nrows, params);
  CAMLlocal1(res);
  const unsigned char *ptrs[MRDB_MAX_PARTS];
  int64_t rows[MRDB_MAX_TABLES];
  mrdb_query_fn f = (mrdb_query_fn)Nativeint_val(fn);
  mlsize_t np = Wosize_val(parts), nt = Wosize_val(nrows);
  if (np > MRDB_MAX_PARTS || nt > MRDB_MAX_TABLES)
    caml_invalid_argument("mrdb_call_query: too many partitions");
  for (mlsize_t i = 0; i < np; i++)
    ptrs[i] = Bytes_val(Field(parts, i)) + Long_val(Field(offs, i));
  for (mlsize_t i = 0; i < nt; i++) rows[i] = Long_val(Field(nrows, i));
  mrdb_out out = { NULL, 0, 0 };
  int64_t size = f(ptrs, rows, Bytes_val(params), &out);
  if (size < 0) {
    free(out.buf);
    CAMLreturn(caml_alloc_string(0));
  }
  res = caml_alloc_string((mlsize_t)size);
  memcpy(Bytes_val(res), out.buf, (size_t)size);
  free(out.buf);
  CAMLreturn(res);
}
