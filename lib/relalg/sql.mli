(** A small SQL front end covering the dialect used by the paper's
    benchmarks:

    {v
    SELECT <item, ...> FROM t [JOIN t2 ON a = b ...]
      [WHERE <conjunctive predicate>]
      [GROUP BY <expr, ...>] [ORDER BY <col [ASC|DESC], ...>] [LIMIT n]
    INSERT INTO t VALUES (<expr, ...>)
    UPDATE t SET col = expr [, ...] [WHERE <predicate>]
    v}

    Items are [*], expressions with optional [AS alias], or aggregate calls
    (count-star, [sum(e)], [min], [max], [avg]).  [$n] denotes a query
    parameter.  Identifiers are case-insensitive. *)

val parse : Storage.Catalog.t -> string -> Plan.t
(** Parse and resolve names against the catalog.
    @raise Mrdb_util.Errors.Parse_error on syntax or resolution errors. *)
