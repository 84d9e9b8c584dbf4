(** Temporary lists (§2.3): intermediate query results.

    "A temporary list is a list of tuple pointers plus an associated
    result descriptor" — entries point back into the source relations; no
    attribute data is copied until {!materialize}.  Unlike relations, a
    temporary list may be traversed directly. *)

type entry = Tuple.t array
(** One pointer per source relation. *)

type t

(** {1 Per-query tuple budget}

    The serving layer bounds runaway queries by installing a budget around
    one executor job: every {!append} (and the full entry count of every
    {!append_all} / {!concat}) on the installing domain charges it, and
    crossing the limit raises {!Quota_exceeded} out of the operator
    pipeline.  Budgets are domain-local; with none installed the cost is
    one domain-local read and a branch. *)

exception Quota_exceeded of { used : int; limit : int }

val with_budget : limit:int -> (unit -> 'a) -> 'a
(** Run [f] with a fresh budget of [limit] intermediate tuples installed
    on the calling domain (restoring the previous budget, if any, on
    exit).  Raises {!Quota_exceeded} from inside [f] when exceeded. *)

val budget_used : unit -> int option
(** Tuples charged to the calling domain's installed budget so far;
    [None] when no budget is installed. *)

val create : Descriptor.t -> t
val descriptor : t -> Descriptor.t
val length : t -> int

val append : t -> entry -> unit
(** @raise Invalid_argument if the entry arity does not match the
    descriptor's source count. *)

val append_all : t -> t -> unit
(** [append_all t src] appends every entry of [src] to [t] with one
    capacity check — the concatenation step of partition-parallel
    operators.  [src] is unchanged.
    @raise Invalid_argument on source-count mismatch. *)

val append_n : t -> Tuple.t array -> int -> unit
(** [append_n t tuples n] appends the first [n] tuples as single-source
    entries with one quota charge and one capacity check — the flush of
    a batched selection kernel.
    @raise Invalid_argument on a multi-source list. *)

val append_many : t -> entry array -> int -> unit
(** [append_many t entries n] appends the first [n] prebuilt entries with
    one quota charge and one capacity check — the flush of a batched
    join kernel.
    @raise Invalid_argument on entry-arity mismatch. *)

val concat : Descriptor.t -> t list -> t
(** A fresh list holding the entries of each part in order. *)

val get : t -> int -> entry
val to_array : t -> entry array
(** The entries as a fresh array, in list order. *)

val iter : t -> (entry -> unit) -> unit
val to_seq : t -> entry Seq.t

val field_value : t -> entry -> int -> Value.t
(** The value of descriptor field [i] for this entry (follows the tuple
    pointer). *)

val materialize_entry : t -> entry -> Value.t array
(** Render one entry as a row of values — the only point where data is
    copied out of the source relations. *)

val materialize : t -> Value.t array list

val of_relation : Relation.t -> t
(** A single-source temporary list over a whole relation, scanned through
    its primary index (the §2.1 access rule). *)

val project : t -> string list -> t
(** Narrow the visible fields; shares the entries with the input. *)

(** {1 Indexing a temporary list}

    §2.3: "it is also possible to have an index on a temporary list". *)

(** A live index over the list's entries, keyed by one descriptor field. *)
module type ENTRY_INDEX = sig
  module I : Mmdb_index.Index_intf.S

  val handle : entry I.t
  val field : int
end

type entry_index = (module ENTRY_INDEX)

val build_index :
  ?structure:(module Mmdb_index.Index_intf.S) ->
  t ->
  label:string ->
  (entry_index, string) result
(** Build an index (a T Tree by default) over the current entries, keyed by
    the named descriptor field.  The index is a snapshot: entries appended
    later are not covered. *)

val lookup_via : t -> entry_index -> Value.t -> entry list
(** All entries whose keyed field equals the probe value. *)

val pp : Format.formatter -> t -> unit
