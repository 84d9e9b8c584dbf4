(** On-the-fly index advisor: creates and drops secondary indices from
    the observed workload.

    Selections already report per-(relation, access path, predicate
    shape) under {!Feedback} keys that embed the leading column name;
    each advisor run diffs those aggregates against the previous run,
    solves a per-candidate benefit-vs-maintenance threshold (separable
    because candidates are single-column), bulk-builds winning indices
    through the sorted {!Mmdb_storage.Relation.create_index} path, and
    drops advisor-owned indices that have gone unused for consecutive
    runs while their relation keeps taking writes.

    Runs are snapshot-guarded: under an MVCC snapshot [run] is a no-op,
    because an index build mutates the relation's index set and must run
    serialized with the single writer, not on a reader.  The server
    therefore schedules runs as exclusive writer jobs.  Advisor indices are never logged;
    recovery rebuilds relations without them and the advisor re-learns. *)

type action =
  | Created of string * string * string
      (** [(relation, index, structure)] *)
  | Dropped of string * string  (** [(relation, index)] *)

val pp_action : Format.formatter -> action -> unit

type stats = {
  adv_runs : int;  (** advisor passes executed *)
  adv_created : int;  (** indices created over the process lifetime *)
  adv_dropped : int;  (** indices dropped over the process lifetime *)
  adv_active : (string * string) list;
      (** advisor-owned [(relation, index)] pairs currently live *)
  adv_last_actions : action list;  (** what the most recent run did *)
}

val run : Db.t -> action list
(** One advisor pass: consume the workload window since the last run,
    create indices whose estimated scan savings beat maintenance plus
    build cost, drop stale owned indices.  Returns the actions taken.
    No-op (returns []) under an active MVCC snapshot. *)

val note_write : ?n:int -> rel:string -> unit -> unit
(** Record [n] (default 1) write operations against a relation; the
    advisor charges pending index maintenance against them. *)

val due : every:int -> bool
(** Statement tick: true on every [every]-th call ([every <= 0] never
    fires).  The server calls this per executed statement batch and
    schedules {!run} when it fires. *)

val default_every : unit -> int
(** Advisor cadence from [MMDB_ADVISOR] (a positive statement count);
    0 when unset or invalid, meaning the advisor is off. *)

val stats : unit -> stats
val reset : unit -> unit
(** Forget all workload aggregates and ownership (tests). *)
