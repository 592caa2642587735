module Workload = Workload
module Microbench = Microbench
module Sap_sd = Sap_sd
module Ch = Ch
module Cnet = Cnet

let names = [ "micro"; "sd"; "ch"; "cnet" ]

let build ?hier name ~scale =
  match name with
  | "micro" ->
      (Microbench.build ?hier ~n:(int_of_float (200_000.0 *. scale)) (), [])
  | "sd" ->
      let sd = Sap_sd.build ?hier ~scale () in
      (sd.Sap_sd.cat, sd.Sap_sd.queries)
  | "ch" ->
      let ch = Ch.build ?hier ~scale () in
      (ch.Ch.cat, ch.Ch.queries @ ch.Ch.transactions)
  | "cnet" ->
      let cn =
        Cnet.build ?hier ~n_products:(int_of_float (20_000.0 *. scale)) ()
      in
      (cn.Cnet.cat, cn.Cnet.queries)
  | other -> invalid_arg (Printf.sprintf "Workloads.build: unknown database %S" other)
