(** Fixed-size execution batches: vectors of tuple pointers plus an
    extracted value slice for one hot column.  Produced by {!fill} (and
    {!Relation.iter_batches}, its relation-scan form); consumed by the
    vectorized operator kernels in [Select] / [Join].  See DESIGN.md
    "Batched execution".

    Key extraction into a batch is uncounted — the consuming kernel
    accounts the paper's §3.1 operations itself so that batched and
    tuple-at-a-time paths report identical counter totals. *)

val default_size : int
(** 256: large enough to amortize per-batch bookkeeping, small enough
    that a batch's key slice stays cache-resident. *)

val enabled : unit -> bool
(** Whether the vectorized paths are active ([MMDB_BATCH]; default on). *)

val size : unit -> int
(** The configured batch size. *)

val set_enabled : bool -> unit
val set_size : int -> unit
(** [set_size n] with [n <= 0] disables batching (the [MMDB_BATCH=0]
    ablation); otherwise sets the batch size. *)

val configure : enabled:bool -> size:int -> unit

type stats = {
  st_enabled : bool;
  st_size : int;
  st_batches : int;  (** batches produced by scan entry points *)
  st_rows : int;  (** rows carried in those batches *)
}

val stats : unit -> stats

val note_batch : rows:int -> unit
(** Record one produced batch (called by the scan entry points). *)

type t = {
  tuples : Tuple.t array;  (** valid in [0, n) *)
  keys : Value.t array;  (** hot-column values, parallel to [tuples] *)
  mutable n : int;
}

val fill :
  ?key_col:int ->
  ?size:int ->
  ((Tuple.t -> unit) -> unit) ->
  (t -> unit) ->
  unit
(** [fill ?key_col ?size iter f] batches the tuples [iter] produces, in
    order, with [key_col] extracted (uncounted, snapshot-resolved) into
    the key slice, and hands each batch to [f].  The batch is reused
    across calls — consume it before returning.  [size] defaults to
    {!size}. *)
