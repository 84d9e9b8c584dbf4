(** Join processing (§3.3): the five algorithms of the paper's study plus
    the pointer-based joins of §2.1.

    Every algorithm yields a temporary list of
    [(outer tuple ptr, inner tuple ptr)] entries under a joined descriptor
    — no data is copied.  Equijoins only, as in the paper.

    {b The outer input.}  A kernel reads its outer side in one loop over
    one of two sources: a scan of the outer relation, or [outer_rows] — a
    single-source temporary list over the outer relation that a selection
    already produced (§2.3).  [outer_filter] is a predicate applied to
    each tuple the outer loop reads, from either source; it does not make
    the loop read fewer tuples.  {!run} chooses the source from the plan's
    access path. *)

open Mmdb_storage

type side = { rel : Relation.t; col : int }
(** A relation and the position of its join column. *)

type method_ =
  | Nested_loops
  | Hash_join
  | Tree_join
  | Sort_merge
  | Tree_merge

val method_name : method_ -> string
val all_methods : method_ list

val nested_loops :
  ?outer_filter:(Tuple.t -> bool) ->
  ?outer_rows:Temp_list.t ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** The O(N²) baseline with no index (Graph 10). *)

val hash_join :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?build_outer:bool ->
  ?outer_filter:(Tuple.t -> bool) ->
  ?outer_rows:Temp_list.t ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Nested loops through a Chained Bucket Hash built on the inner join
    column.  The build cost is always included: "a hash table index is
    less likely to exist than a T Tree index" (§3.3.2).

    [build_outer] (default false) builds the table on the outer side
    instead and probes with the inner — chosen by the cost-based planner
    when the selection leaves the outer smaller than the inner; the table
    then holds only the outer input's qualifying tuples.  The partitioned
    parallel paths ignore the hint: they already pick a build side per
    partition (role reversal).

    With a parallel [pool] and a large enough input (outer rows read plus
    inner cardinality >= 2048), the join runs partitioned: both sides are
    routed by hash of the join key into per-worker buckets, and each
    bucket is an independent build+probe producing a local list,
    concatenated at the end — the same result multiset as the sequential join, with counters
    within chain-length bookkeeping tolerance of it. *)

val find_tree_index : side -> Relation.index_instance option
(** The pre-existing ordered index on a side's join column, if any. *)

val tree_join :
  ?outer_filter:(Tuple.t -> bool) ->
  ?outer_rows:Temp_list.t ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Nested loops through a {e pre-existing} ordered index on the inner
    join column (building one just for the join never pays off, §3.3.2).
    @raise Invalid_argument when no such index exists. *)

val sort_merge :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?cutoff:int ->
  ?outer_filter:(Tuple.t -> bool) ->
  ?outer_rows:Temp_list.t ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Build array indexes on both join columns, quicksort them ([cutoff] is
    the insertion-sort threshold, default 10 per footnote 6), merge.
    Build and sort costs are always charged; duplicate runs rescan the
    contiguous array with integer cursors, the efficiency behind its
    high-output wins (Graphs 7/8).  With a parallel [pool], each side's
    sort runs via {!Mmdb_util.Qsort.sort_parallel}; the merge join itself
    stays sequential. *)

val tree_merge :
  ?outer_filter:(Tuple.t -> bool) -> outer:side -> inner:side -> unit -> Temp_list.t
(** Merge join over {e pre-existing} ordered indexes on both join columns.
    It walks the outer join-column index in key order, so it has no
    [outer_rows] source: a selection can only filter that walk.
    @raise Invalid_argument when either index is missing. *)

val run :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?build_outer:bool ->
  ?outer_filter:(Tuple.t -> bool) ->
  ?outer_path:Select.access_path * Select.predicate list ->
  ?est_rows:int ->
  method_ ->
  outer:side ->
  inner:side ->
  Temp_list.t
(** Uniform entry point over the five algorithms.  [outer_path] is the
    selection on the outer side: the planned access path and the
    predicates, led by the one that path serves.  With a hash or tree
    lookup path the selection runs first, as a [select] span inside the
    [join] span, and the kernel reads its temporary list as [outer_rows].
    With a sequential scan path, and always for {!Tree_merge}, the
    predicates join [outer_filter] on the relation scan.  [pool] enables
    the parallel variants of {!hash_join} and {!sort_merge}; the other methods ignore
    it.  [build_outer] applies to {!hash_join} only.  [est_rows] is the optimizer's output-cardinality estimate,
    recorded as the [est_rows] trace attribute and fed with the actual
    row count to {!Feedback.observe} under {!feedback_key}.  Every method
    runs under an MVCC snapshot: the tree methods read through
    {!Relation}'s snapshot-safe index reads. *)

val feedback_key : method_:method_ -> outer:side -> inner:side -> string
(** The (method, outer, inner) key under which {!Feedback} aggregates
    estimated-vs-actual cardinalities for this join shape. *)

val feedback_key_of :
  method_name:string -> outer_name:string -> inner_name:string -> string
(** Raw constructor behind {!feedback_key}; the precomputed pointer join
    uses [~method_name:"Precomputed" ~inner_name:"*"]. *)

val skew_stats : unit -> int * int
(** [(repartitions, role_reversals)]: cumulative counts of the
    skew-handling events the batched partitioned join has taken
    (recursive repartitioning of an oversized bucket; building on the
    probe side when a hot key makes the inner bucket unsplittable).
    Surfaced in STATS and in the join trace span. *)

(** {1 Non-equijoins (§3.3.5)} *)

type inequality = Lt | Le | Gt | Ge

val inequality_name : inequality -> string

val tree_inequality_join :
  ?outer_filter:(Tuple.t -> bool) ->
  ?outer_rows:Temp_list.t ->
  op:inequality ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Non-equijoin with predicate [outer_key op inner_key], served by the
    ordering of a {e pre-existing} tree index on the inner join column —
    per the paper's note that ordered indices serve every non-equijoin
    except [<>].  For [Lt]/[Le] the inner index is scanned upward from
    each outer key; for [Gt]/[Ge] its in-order prefix is scanned.
    @raise Invalid_argument when no ordered index exists. *)

(** {1 Pointer-based joins (§2.1)} *)

val precomputed :
  ?est_rows:int ->
  ?outer_path:Select.access_path * Select.predicate list ->
  outer:Relation.t ->
  ref_col:int ->
  inner_schema:Schema.t ->
  unit ->
  Temp_list.t
(** Query 1 style: the outer's foreign-key column already holds tuple
    pointers, so the join just follows them ("the joining tuples have
    already been paired").  [Null] pointers produce no pair.  Only the
    outer tuples the [outer_path] selection keeps are followed;
    [outer_path] and [est_rows] behave as in {!run}.
    @raise Invalid_argument if the column holds non-pointer values. *)

val pointer_join :
  outer:Relation.t -> ref_col:int -> selected:Temp_list.t -> Temp_list.t
(** Query 2 style: join a selected set of inner tuples back to the outer
    relation, comparing tuple {e pointers} rather than data values.
    [selected] must be a single-source temporary list over the referenced
    relation. *)

(** {1 Internals exposed for tests} *)

val merge_sequences :
  key_of1:('a -> Value.t) ->
  key_of2:('b -> Value.t) ->
  'a Seq.t ->
  'b Seq.t ->
  emit:('a -> 'b -> unit) ->
  unit
(** Merge two key-ordered sequences, emitting the cross product of each
    pair of equal-key runs; inner runs are rescanned through persistent
    sequence positions rather than buffered. *)

val merge_arrays :
  key1:('a -> Value.t) ->
  key2:('b -> Value.t) ->
  'a array ->
  'b array ->
  emit:('a -> 'b -> unit) ->
  unit
(** The array-cursor specialization used by {!sort_merge}. *)
