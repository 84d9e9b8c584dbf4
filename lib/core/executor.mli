(** Plan execution: turn an {!Optimizer.plan} into a temporary list.

    A join reads its outer side through the plan's access path: after a
    hash or tree lookup the kernel reads the selection's temporary list,
    after a sequential scan path it scans the relation with the
    predicates applied in its outer loop (Tree Merge, which must walk its
    join-column index in order, always filters that walk).  Projection
    narrows the descriptor; only [DISTINCT] does real
    duplicate-elimination work ("tuples are never copied, only pointed
    to", §4). *)

open Mmdb_storage

val execute : ?pool:Mmdb_util.Domain_pool.t -> Optimizer.plan -> Temp_list.t
(** [pool] (default {!Mmdb_util.Domain_pool.global}) powers the parallel
    operator variants on large inputs; a size-1 pool (MMDB_DOMAINS=1)
    reproduces the sequential execution bit for bit. *)

val query :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?stats:Optimizer.join_stats ->
  Db.t ->
  Query.t ->
  Temp_list.t
(** Plan and run in one call. *)

val rows : Temp_list.t -> string list list
(** Materialized result rows rendered as strings. *)

val pp_result : Format.formatter -> Temp_list.t -> unit
(** Header, rows, and a row count — the shell's result format. *)
