(** The paper's data sets: the microbenchmark (Fig. 3), SAP-SD (Figs.
    9-10), CH (Fig. 11) and CNET (Fig. 12), and the demo databases every
    front end loads from them by name. *)

module Workload = Workload
module Microbench = Microbench
module Sap_sd = Sap_sd
module Ch = Ch
module Cnet = Cnet

val names : string list
(** The demo databases: ["micro"; "sd"; "ch"; "cnet"]. *)

val build :
  ?hier:Memsim.Hierarchy.t ->
  string ->
  scale:float ->
  Storage.Catalog.t * Workload.query list
(** [build name ~scale] is the demo database [name] with its query mix
    (none for micro; CH's analytical queries then its transactions).
    Micro has 200,000 x [scale] rows and cnet 20,000 x [scale] products;
    sd and ch take [scale] as their own.
    @raise Invalid_argument for a name not in {!names}. *)
