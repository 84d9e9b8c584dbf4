(** Join processing (§3.3).

    The five algorithms of the paper's study, plus the pointer-based
    precomputed join of §2.1:

    - {!nested_loops} — the O(N²) baseline with no index (Graph 10);
    - {!hash_join} — nested loops with a Chained Bucket Hash built on the
      inner relation's join column (build cost always included, §3.3.2);
    - {!tree_join} — nested loops through a {e pre-existing} T Tree index
      on the inner join column;
    - {!sort_merge} — build array indexes on both relations, quicksort
      them (insertion sort below 10 elements), merge;
    - {!tree_merge} — merge join over {e pre-existing} T Tree indexes on
      both join columns;
    - {!precomputed} / {!pointer_join} — follow foreign-key tuple pointers,
      or compare on pointers instead of data values (§2.1, Queries 1/2).

    Every algorithm produces a temporary list whose entries are
    [(outer tuple ptr, inner tuple ptr)] pairs under a joined descriptor —
    no data is copied (§2.3).  Equijoins only, as in the paper; for
    non-equijoins other than ≠ the ordering of a tree index applies
    (§3.3.5). *)

open Mmdb_util
open Mmdb_storage

type side = { rel : Relation.t; col : int }

type method_ =
  | Nested_loops
  | Hash_join
  | Tree_join
  | Sort_merge
  | Tree_merge

let method_name = function
  | Nested_loops -> "Nested Loops"
  | Hash_join -> "Hash Join"
  | Tree_join -> "Tree Join"
  | Sort_merge -> "Sort Merge"
  | Tree_merge -> "Tree Merge"

let all_methods = [ Nested_loops; Hash_join; Tree_join; Sort_merge; Tree_merge ]

let result_list outer inner =
  Temp_list.create
    (Descriptor.join
       (Descriptor.of_schema (Relation.schema outer.rel))
       (Descriptor.of_schema (Relation.schema inner.rel)))

let key side tuple = Tuple.get tuple side.col

let vcmp = Counters.counting_cmp Value.compare

(* --- the outer input ------------------------------------------------------ *)

(* Every kernel reads its outer side through one loop over one of two
   sources: a scan of [outer.rel], or [outer_rows] — the single-source
   temporary list an index selection already produced over it (§2.3).
   [outer_filter], a predicate pushed into the outer loop, applies to
   either source. *)
let iter_outer ?outer_filter ?outer_rows outer f =
  let f =
    match outer_filter with
    | None -> f
    | Some p -> fun o -> if p o then f o
  in
  match outer_rows with
  | None -> Relation.iter outer.rel f
  | Some rows -> Temp_list.iter rows (fun e -> f e.(0))

(* The same input in batches, join keys in the key slice. *)
let outer_batches ?outer_filter ?outer_rows outer f =
  Batch.fill ~key_col:outer.col (iter_outer ?outer_filter ?outer_rows outer) f

(* How many tuples the outer loop reads: what sizes tables and decides
   whether a kernel goes parallel. *)
let outer_reads ?outer_rows outer =
  match outer_rows with
  | None -> Relation.cardinality outer.rel
  | Some rows -> Temp_list.length rows

(* --- nested loops ------------------------------------------------------ *)

let nested_loops ?outer_filter ?outer_rows ~outer ~inner () =
  let out = result_list outer inner in
  iter_outer ?outer_filter ?outer_rows outer (fun o ->
      let ko = key outer o in
      Relation.iter inner.rel (fun i ->
          if vcmp ko (key inner i) = 0 then Temp_list.append out [| o; i |]));
  out

(* --- hash join ---------------------------------------------------------- *)

(* Build a Chained Bucket Hash index on the inner join column — the paper
   always charges this build cost, "because we feel that a hash table index
   is less likely to exist than a T Tree index" (§3.3.2).  Table size is
   half the inner cardinality, as in the paper's projection experiments. *)
let hash_join_seq ?outer_filter ?outer_rows ~outer ~inner () =
  let out = result_list outer inner in
  let columns = [| inner.col |] in
  let table =
    Mmdb_index.Chained_hash.create ~duplicates:true
      ~expected:(Relation.cardinality inner.rel)
      ~cmp:(Tuple.compare_keyed ~columns)
      ~hash:(Tuple.hash_on ~columns) ()
  in
  Relation.iter inner.rel (fun i ->
      ignore (Mmdb_index.Chained_hash.insert table i));
  (* One reusable probe; only its key slot changes per outer tuple. *)
  let probe =
    Tuple.probe (Array.make (Schema.arity (Relation.schema inner.rel)) Value.Null)
  in
  iter_outer ?outer_filter ?outer_rows outer (fun o ->
      Tuple.set probe inner.col (key outer o);
      Mmdb_index.Chained_hash.iter_matches table probe (fun i ->
          Temp_list.append out [| o; i |]));
  out

(* Build-on-outer variant, chosen by the cost-based planner when the
   selection leaves the outer side smaller than the inner: the table is
   built over the outer input (so it only holds qualifying tuples) and
   the inner side probes.  Emission stays (outer, inner). *)
let hash_join_seq_build_outer ?outer_filter ?outer_rows ~outer ~inner () =
  let out = result_list outer inner in
  let columns = [| outer.col |] in
  let table =
    Mmdb_index.Chained_hash.create ~duplicates:true
      ~expected:(outer_reads ?outer_rows outer)
      ~cmp:(Tuple.compare_keyed ~columns)
      ~hash:(Tuple.hash_on ~columns) ()
  in
  iter_outer ?outer_filter ?outer_rows outer (fun o ->
      ignore (Mmdb_index.Chained_hash.insert table o));
  let probe =
    Tuple.probe (Array.make (Schema.arity (Relation.schema outer.rel)) Value.Null)
  in
  Relation.iter inner.rel (fun i ->
      Tuple.set probe outer.col (key inner i);
      Mmdb_index.Chained_hash.iter_matches table probe (fun o ->
          Temp_list.append out [| o; i |]));
  out

(* --- batched hash join -------------------------------------------------- *)

(* Skew-handling event counters (per 2112.02480, translated to the
   in-memory setting): surfaced in STATS and as trace attrs. *)
let repartitions = Atomic.make 0
let role_reversals = Atomic.make 0

let skew_stats () = (Atomic.get repartitions, Atomic.get role_reversals)

(* A chain cell carrying the extracted key next to the tuple pointer:
   probe comparisons read the cache-resident value instead of
   dereferencing two tuples per cell. *)
type hcell = { hkey : Value.t; htup : Tuple.t; mutable hnext : hcell option }

(* The Chained Bucket Hash sizing and hash formula of the scalar kernel,
   replicated exactly (same table size, same slot for every key, same
   prepend-on-insert chain layout) so chain walks compare the same cells
   in the same order and the §3.1 tallies match bump for bump.
   [Tuple.hash_on ~columns:[|c|]] is [17 * 31 + Value.hash v]. *)
let hslot ~slots k = (527 + Value.hash k) land max_int mod slots

(* Per-probe chain walk, counting as [Chained_hash.iter_matches] does:
   one hash call and one dereference for the probe's hash, then one
   comparison plus two dereferences per cell ([counting_cmp] over
   [Tuple.compare_keyed]). *)
let probe_chain table ~slots ko ~emit =
  Counters.bump_hash_calls ();
  Counters.bump_ptr_derefs ();
  let rec walk = function
    | None -> ()
    | Some c ->
        Counters.bump_comparisons ();
        Counters.bump_ptr_derefs ~n:2 ();
        if Value.compare ko c.hkey = 0 then emit c.htup;
        walk c.hnext
  in
  walk table.(hslot ~slots ko)

(* Growable pair buffer: matches accumulate here and flush into the
   result list in bulk (one quota charge and capacity check per flush
   instead of per pair). *)
type pair_buf = { mutable buf : Temp_list.entry array; mutable bn : int }

let pair_buf () = { buf = Array.make 256 [||]; bn = 0 }

let pair_push pb o i =
  if pb.bn = Array.length pb.buf then begin
    let grown = Array.make (2 * pb.bn) [||] in
    Array.blit pb.buf 0 grown 0 pb.bn;
    pb.buf <- grown
  end;
  pb.buf.(pb.bn) <- [| o; i |];
  pb.bn <- pb.bn + 1

let pair_flush pb out =
  if pb.bn > 0 then begin
    Temp_list.append_many out pb.buf pb.bn;
    pb.bn <- 0
  end

(* Vectorized sequential hash join: batches carry pre-extracted join
   keys, the build charges its per-tuple costs once per batch, and probes
   walk value-carrying chains.  Identical counter totals to
   {!hash_join_seq} (same table shape, same per-operation bumps). *)
let hash_join_batched ?outer_filter ?outer_rows ~outer ~inner () =
  let out = result_list outer inner in
  let slots = max 16 (Relation.cardinality inner.rel / 2) in
  let table = Array.make slots None in
  Relation.iter_batches ~key_col:inner.col inner.rel (fun b ->
      let n = b.Batch.n in
      (* scalar insert cost per inner tuple: one hash call + one
         dereference (hash_on), one node alloc, one data move *)
      Counters.bump_hash_calls ~n ();
      Counters.bump_ptr_derefs ~n ();
      Counters.bump_node_allocs ~n ();
      Counters.bump_data_moves ~n ();
      for i = 0 to n - 1 do
        let k = b.Batch.keys.(i) in
        let s = hslot ~slots k in
        table.(s) <- Some { hkey = k; htup = b.Batch.tuples.(i); hnext = table.(s) }
      done);
  let pb = pair_buf () in
  outer_batches ?outer_filter ?outer_rows outer (fun b ->
      (* scalar probe extracts the outer key: one dereference each *)
      Counters.bump_ptr_derefs ~n:b.Batch.n ();
      for i = 0 to b.Batch.n - 1 do
        let o = b.Batch.tuples.(i) in
        probe_chain table ~slots b.Batch.keys.(i) ~emit:(fun it ->
            pair_push pb o it)
      done;
      pair_flush pb out);
  out

(* Batched build-on-outer: mirror of {!hash_join_seq_build_outer} with
   the same per-operation counter bumps as {!hash_join_batched}. *)
let hash_join_batched_build_outer ?outer_filter ?outer_rows ~outer ~inner () =
  let out = result_list outer inner in
  let slots = max 16 (outer_reads ?outer_rows outer / 2) in
  let table = Array.make slots None in
  outer_batches ?outer_filter ?outer_rows outer (fun b ->
      let n = b.Batch.n in
      Counters.bump_hash_calls ~n ();
      Counters.bump_ptr_derefs ~n ();
      Counters.bump_node_allocs ~n ();
      Counters.bump_data_moves ~n ();
      for i = 0 to n - 1 do
        let k = b.Batch.keys.(i) in
        let s = hslot ~slots k in
        table.(s) <- Some { hkey = k; htup = b.Batch.tuples.(i); hnext = table.(s) }
      done);
  let pb = pair_buf () in
  Relation.iter_batches ~key_col:inner.col inner.rel (fun b ->
      for i = 0 to b.Batch.n - 1 do
        let it = b.Batch.tuples.(i) in
        (* scalar probe extracts the inner key: one dereference *)
        Counters.bump_ptr_derefs ();
        probe_chain table ~slots b.Batch.keys.(i) ~emit:(fun o ->
            pair_push pb o it)
      done;
      pair_flush pb out);
  out

(* Below this combined cardinality the partitioned variant loses to the
   fork/join overhead. *)
let parallel_join_threshold = 2048

(* Partitioned (Grace-style) parallel hash join: both sides are routed by
   hash of the join key into [p] disjoint buckets, and each bucket is an
   independent build+probe job — tuples with equal keys always land in the
   same bucket, so the union of the bucket joins is exactly the sequential
   result.  Routing is a plain [Value.hash] (not counted: it is
   parallelization bookkeeping, not part of the paper's algorithm); the
   per-bucket builds and probes count hash calls and comparisons exactly
   as the sequential join does, modulo chain-length effects of the smaller
   per-bucket tables. *)
let hash_join_par pool ?outer_filter ?outer_rows ~outer ~inner () =
  let p = Domain_pool.size pool in
  let route v = Value.hash v land max_int mod p in
  let inner_buckets = Array.make p [] in
  Relation.iter inner.rel (fun i ->
      let b = route (key inner i) in
      inner_buckets.(b) <- i :: inner_buckets.(b));
  (* Outer keys are extracted once here (as in the sequential probe loop)
     and carried into the bucket to avoid a second dereference. *)
  let outer_buckets = Array.make p [] in
  iter_outer ?outer_filter ?outer_rows outer (fun o ->
      let ko = key outer o in
      let b = route ko in
      outer_buckets.(b) <- (ko, o) :: outer_buckets.(b));
  let desc =
    Descriptor.join
      (Descriptor.of_schema (Relation.schema outer.rel))
      (Descriptor.of_schema (Relation.schema inner.rel))
  in
  let columns = [| inner.col |] in
  let inner_arity = Schema.arity (Relation.schema inner.rel) in
  let locals =
    Domain_pool.parallel_map pool
      (fun b ->
        let local = Temp_list.create desc in
        let inners = List.rev inner_buckets.(b) in
        let outers = List.rev outer_buckets.(b) in
        (match (inners, outers) with
        | [], _ | _, [] -> ()
        | _ ->
            let table =
              Mmdb_index.Chained_hash.create ~duplicates:true
                ~expected:(List.length inners)
                ~cmp:(Tuple.compare_keyed ~columns)
                ~hash:(Tuple.hash_on ~columns) ()
            in
            List.iter
              (fun i -> ignore (Mmdb_index.Chained_hash.insert table i))
              inners;
            let probe = Tuple.probe (Array.make inner_arity Value.Null) in
            List.iter
              (fun (ko, o) ->
                Tuple.set probe inner.col ko;
                Mmdb_index.Chained_hash.iter_matches table probe (fun i ->
                    Temp_list.append local [| o; i |]))
              outers);
        local)
      (Array.init p (fun b -> b))
  in
  Temp_list.concat desc (Array.to_list locals)

(* --- skew-robust partition-wise processing (2112.02480) ----------------- *)

(* The hybrid-hash trade-offs of "Design Trade-offs for a Robust Dynamic
   Hybrid Hash Join" translated to the in-memory setting: a partition
   whose build side exceeds its working-set bound is not built blindly.
   In preference order:

   - {e role reversal} — build on the (smaller) probe side instead: the
     fix for a single hot key, which no amount of repartitioning can
     split (every repeat lands in the same partition);
   - {e recursive repartitioning} — re-split on a salted hash, bounded
     depth: the fix for many distinct keys that merely collided;
   - give up and build anyway (bounded depth exhausted, both sides
     oversized) — correctness never depends on the heuristics.

   Events are counted in {!repartitions} / {!role_reversals} for STATS
   and the join trace span.  When neither trigger fires (uniform keys),
   the partition is processed exactly like the scalar partitioned join,
   bump-for-bump. *)

let max_repartition_depth = 2
let repartition_fanout = 8

(* A partition's build side may exceed the even share by 2x before the
   skew machinery engages; the floor keeps small partitions out of it
   entirely (and keeps randomized equivalence workloads deterministic). *)
let skew_bound_floor = 1024

(* Build a value-carrying chain table on [build], probe with
   [probe_side]; [rev] means roles were reversed and emission swaps back
   to (outer, inner). *)
let build_probe ~emit ~rev build probe_side =
  let nb = Array.length build in
  let slots = max 16 (nb / 2) in
  let table = Array.make slots None in
  Counters.bump_hash_calls ~n:nb ();
  Counters.bump_ptr_derefs ~n:nb ();
  Counters.bump_node_allocs ~n:nb ();
  Counters.bump_data_moves ~n:nb ();
  Array.iter
    (fun (k, t) ->
      let s = hslot ~slots k in
      table.(s) <- Some { hkey = k; htup = t; hnext = table.(s) })
    build;
  Array.iter
    (fun (k, t) ->
      probe_chain table ~slots k ~emit:(fun m ->
          if rev then emit m t else emit t m))
    probe_side

let rec bucket_join ~emit ~bound ~depth inners outers =
  let ni = Array.length inners and no = Array.length outers in
  if ni = 0 || no = 0 then ()
  else if ni <= bound then build_probe ~emit ~rev:false inners outers
  else if no < ni && no <= bound then begin
    Atomic.incr role_reversals;
    build_probe ~emit ~rev:true outers inners
  end
  else if depth < max_repartition_depth then begin
    Atomic.incr repartitions;
    let sub = repartition_fanout in
    let salt = 0x9e3779b9 * (depth + 1) in
    let route k = Hashtbl.hash (Value.hash k lxor salt) mod sub in
    let si = Array.make sub [] and so = Array.make sub [] in
    Array.iter
      (fun ((k, _) as pr) ->
        let b = route k in
        si.(b) <- pr :: si.(b))
      inners;
    Array.iter
      (fun ((k, _) as pr) ->
        let b = route k in
        so.(b) <- pr :: so.(b))
      outers;
    (* the pairs are young: [Array.of_list] would force a minor
       collection *)
    for b = 0 to sub - 1 do
      bucket_join ~emit ~bound ~depth:(depth + 1)
        (Arrays.of_rev_list si.(b))
        (Arrays.of_rev_list so.(b))
    done
  end
  else if no < ni then begin
    Atomic.incr role_reversals;
    build_probe ~emit ~rev:true outers inners
  end
  else build_probe ~emit ~rev:false inners outers

(* Batched partitioned hash join: both sides are collected as (key,
   tuple) pairs on the coordinator — through {!Relation.iter_batches},
   so under an MVCC snapshot the keys are version-resolved here and the
   worker jobs never dereference a tuple — routed into per-worker
   partitions, and each partition is processed with the skew-robust
   [bucket_join].  With uniform keys the counters match the scalar
   partitioned join exactly; when a skew trigger fires they diverge
   (role reversal builds the other side), which is the point. *)
let hash_join_par_batched pool ?outer_filter ?outer_rows ~outer ~inner () =
  let p = Domain_pool.size pool in
  let route v = Value.hash v land max_int mod p in
  let inner_parts = Array.make p [] in
  let total_inner = ref 0 in
  Relation.iter_batches ~key_col:inner.col inner.rel (fun b ->
      (* scalar routing extracts the inner key: one dereference each *)
      Counters.bump_ptr_derefs ~n:b.Batch.n ();
      total_inner := !total_inner + b.Batch.n;
      for i = 0 to b.Batch.n - 1 do
        let k = b.Batch.keys.(i) in
        let bkt = route k in
        inner_parts.(bkt) <- (k, b.Batch.tuples.(i)) :: inner_parts.(bkt)
      done);
  let outer_parts = Array.make p [] in
  outer_batches ?outer_filter ?outer_rows outer (fun b ->
      Counters.bump_ptr_derefs ~n:b.Batch.n ();
      for i = 0 to b.Batch.n - 1 do
        let k = b.Batch.keys.(i) in
        let bkt = route k in
        outer_parts.(bkt) <- (k, b.Batch.tuples.(i)) :: outer_parts.(bkt)
      done);
  let desc =
    Descriptor.join
      (Descriptor.of_schema (Relation.schema outer.rel))
      (Descriptor.of_schema (Relation.schema inner.rel))
  in
  let bound = max skew_bound_floor (2 * !total_inner / p) in
  let locals =
    Domain_pool.parallel_map pool
      (fun bkt ->
        let local = Temp_list.create desc in
        let inners = Arrays.of_rev_list inner_parts.(bkt) in
        let outers = Arrays.of_rev_list outer_parts.(bkt) in
        let pb = pair_buf () in
        bucket_join ~emit:(fun o i -> pair_push pb o i) ~bound ~depth:0
          inners outers;
        pair_flush pb local;
        local)
      (Array.init p (fun b -> b))
  in
  Temp_list.concat desc (Array.to_list locals)

let hash_join ?pool ?(build_outer = false) ?outer_filter ?outer_rows ~outer
    ~inner () =
  match pool with
  | Some pool
    when Domain_pool.size pool > 1
         && (not (Domain_pool.in_worker ()))
         && outer_reads ?outer_rows outer + Relation.cardinality inner.rel
            >= parallel_join_threshold ->
      (* The partitioned paths pick their build side per partition (role
         reversal in [bucket_join]); the planner's hint is moot there. *)
      if Batch.enabled () then
        hash_join_par_batched pool ?outer_filter ?outer_rows ~outer ~inner ()
      else hash_join_par pool ?outer_filter ?outer_rows ~outer ~inner ()
  | _ ->
      let kernel =
        match (build_outer, Batch.enabled ()) with
        | true, true -> hash_join_batched_build_outer
        | true, false -> hash_join_seq_build_outer
        | false, true -> hash_join_batched
        | false, false -> hash_join_seq
      in
      kernel ?outer_filter ?outer_rows ~outer ~inner ()

(* --- tree join ----------------------------------------------------------- *)

(* Requires an existing ordered index on the inner join column; the paper
   shows that building a T Tree just for the join never pays off. *)
let find_tree_index side =
  Relation.find_index_on ~ordered:true side.rel ~columns:[| side.col |]

let tree_join ?outer_filter ?outer_rows ~outer ~inner () =
  match find_tree_index inner with
  | None ->
      invalid_arg
        (Printf.sprintf "Join.tree_join: no ordered index on %s column %d"
           (Relation.name inner.rel) inner.col)
  | Some (module Inst : Relation.INSTANCE) ->
      let out = result_list outer inner in
      let index = Inst.def.Relation.idx_name in
      iter_outer ?outer_filter ?outer_rows outer (fun o ->
          Relation.iter_matches ~index inner.rel [| key outer o |] (fun i ->
              Temp_list.append out [| o; i |]));
      out

(* --- merge joins ----------------------------------------------------------- *)

(* Merge two key-ordered tuple sequences, emitting the cross product of each
   pair of equal-key runs.

   As in the paper's implementation, duplicate runs are not buffered: for
   each outer tuple of a run, the inner run is {e rescanned through the
   index} from a saved position (the sequences are persistent, so a saved
   continuation replays the index scan).  This is what makes the scan cost
   of the underlying structure — contiguous array vs pointer-chasing tree —
   visible in high-duplicate joins, the effect behind the Sort Merge
   crossovers of Graphs 7 and 8. *)
let merge_sequences ~key_of1 ~key_of2 seq1 seq2 ~emit =
  (* Emit pairs (x, y) for every y at the head of [s2] whose key equals [k],
     returning the rest. *)
  let rec scan_inner k x s2 =
    match s2 () with
    | Seq.Cons (y, r2) when vcmp (key_of2 y) k = 0 ->
        emit x y;
        scan_inner k x r2
    | _ -> ()
  in
  let rec drop_run key_of k s =
    match s () with
    | Seq.Cons (y, r) when vcmp (key_of y) k = 0 -> drop_run key_of k r
    | other -> fun () -> other
  in
  let rec loop s1 s2 =
    match (s1 (), s2 ()) with
    | Seq.Nil, _ | _, Seq.Nil -> ()
    | Seq.Cons (x, r1), (Seq.Cons (y, r2) as n2) ->
        let c = vcmp (key_of1 x) (key_of2 y) in
        if c < 0 then loop r1 (fun () -> n2)
        else if c > 0 then loop (fun () -> Seq.Cons (x, r1)) r2
        else begin
          let k = key_of1 x in
          let inner_start = fun () -> n2 in
          (* every outer tuple of the run rescans the inner run *)
          let rec each_outer s1' =
            match s1' () with
            | Seq.Cons (x', r1') when vcmp (key_of1 x') k = 0 ->
                scan_inner k x' inner_start;
                each_outer r1'
            | other -> fun () -> other
          in
          let rest1 = each_outer (fun () -> Seq.Cons (x, r1)) in
          let rest2 = drop_run key_of2 k inner_start in
          loop rest1 rest2
        end
  in
  loop seq1 seq2

(* Merge join specialized to array indexes: "the array index holds a list
   of contiguous elements", so run rescans are integer cursor resets with
   no per-element allocation — the efficiency that lets Sort Merge win
   high-output joins (Graphs 7/8) despite paying for its sort. *)
let merge_arrays ~key1 ~key2 arr1 arr2 ~emit =
  let n1 = Array.length arr1 and n2 = Array.length arr2 in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    let c = vcmp (key1 arr1.(!i)) (key2 arr2.(!j)) in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      let k = key1 arr1.(!i) in
      let j_end = ref !j in
      while !j_end < n2 && vcmp (key2 arr2.(!j_end)) k = 0 do
        incr j_end
      done;
      while !i < n1 && vcmp (key1 arr1.(!i)) k = 0 do
        for jj = !j to !j_end - 1 do
          emit arr1.(!i) arr2.(jj)
        done;
        incr i
      done;
      j := !j_end
    end
  done

(* Batched Sort Merge: both sides are collected as (key, tuple) pairs
   through {!Relation.iter_batches} (snapshot-safe key extraction at fill
   time), sorted on the cached key — so the comparator and the merge's
   key reads touch a contiguous pair array instead of dereferencing two
   tuples per comparison — and merged with bulk pair emission.  Counter
   parity with the scalar kernel: the comparator charges the two
   dereferences [Tuple.compare_on] would pay, the merge key extractors
   one each, and [Qsort]'s counted primitives add the comparisons and
   moves, so with the same kernel the §3.1 totals are identical. *)
let sort_merge_batched ?pool ~cutoff ?outer_filter ?outer_rows ~outer ~inner
    () =
  let out = result_list outer inner in
  let collect batches =
    let acc = ref [] in
    batches (fun b ->
        for i = 0 to b.Batch.n - 1 do
          acc := (b.Batch.keys.(i), b.Batch.tuples.(i)) :: !acc
        done);
    (* the pairs are young: [Array.of_list] would force a minor
       collection *)
    Arrays.of_rev_list !acc
  in
  let arr1 = collect (outer_batches ?outer_filter ?outer_rows outer) in
  let arr2 = collect (Relation.iter_batches ~key_col:inner.col inner.rel) in
  let kern =
    Qsort.choose
      ~n:(max (Array.length arr1) (Array.length arr2))
      ~batched:true
  in
  if Trace.active () then Trace.add_attr "sort_kernel" (Qsort.kernel_name kern);
  let cmp (k1, _) (k2, _) =
    Counters.bump_ptr_derefs ~n:2 ();
    Value.compare k1 k2
  in
  Qsort.sort_with ~cutoff ?pool kern ~cmp arr1;
  Qsort.sort_with ~cutoff ?pool kern ~cmp arr2;
  let kread (k, _) =
    Counters.bump_ptr_derefs ();
    k
  in
  let pb = pair_buf () in
  merge_arrays ~key1:kread ~key2:kread arr1 arr2
    ~emit:(fun (_, a) (_, b) -> pair_push pb a b);
  pair_flush pb out;
  out

(* Sort Merge: build array indexes on both join columns and sort them
   (§3.3.2) — the paper's quicksort, or the DPG cache-efficient kernel
   when {!Qsort.choose} picks it — then merge.  Build cost is always
   charged.  With a pool, each quicksort is itself parallel
   ([Qsort.sort_parallel] — slice quicksorts plus parallel merge rounds);
   the final merge join stays sequential (it emits into one list). *)
let sort_merge ?pool ?(cutoff = 10) ?outer_filter ?outer_rows ~outer ~inner ()
    =
  if Batch.enabled () then
    sort_merge_batched ?pool ~cutoff ?outer_filter ?outer_rows ~outer ~inner ()
  else begin
    let out = result_list outer inner in
    let collect iter =
      let acc = ref [] in
      iter (fun t -> acc := t :: !acc);
      Arrays.of_rev_list !acc
    in
    let arr1 = collect (iter_outer ?outer_filter ?outer_rows outer) in
    let arr2 = collect (Relation.iter inner.rel) in
    let kern =
      Qsort.choose
        ~n:(max (Array.length arr1) (Array.length arr2))
        ~batched:false
    in
    if Trace.active () then
      Trace.add_attr "sort_kernel" (Qsort.kernel_name kern);
    let sort side arr =
      let cmp = Tuple.compare_on ~columns:[| side.col |] in
      Qsort.sort_with ~cutoff ?pool kern ~cmp arr
    in
    (* The sides sort one after the other: each parallel sort already uses
       every worker, and submitting a side as a task itself would nest
       pools (forcing its inner sort sequential). *)
    sort outer arr1;
    sort inner arr2;
    merge_arrays ~key1:(key outer) ~key2:(key inner) arr1 arr2
      ~emit:(fun a b -> Temp_list.append out [| a; b |]);
    out
  end

(* Tree Merge: merge join over pre-existing T Tree indexes on both sides.
   The tree scan follows node pointers, which is why the paper measures it
   at ~1.5x the array scan cost — that cost shows up here through the
   pointer-chasing Seq, not as a magic constant. *)
let tree_merge ?outer_filter ~outer ~inner () =
  match (find_tree_index outer, find_tree_index inner) with
  | Some (module O : Relation.INSTANCE), Some (module I : Relation.INSTANCE)
    ->
      let out = result_list outer inner in
      let outer_seq =
        let s = Relation.to_seq ~index:O.def.Relation.idx_name outer.rel in
        match outer_filter with None -> s | Some f -> Seq.filter f s
      in
      merge_sequences ~key_of1:(key outer) ~key_of2:(key inner) outer_seq
        (Relation.to_seq ~index:I.def.Relation.idx_name inner.rel)
        ~emit:(fun a b -> Temp_list.append out [| a; b |]);
      out
  | _ ->
      invalid_arg
        "Join.tree_merge: both join columns need a pre-existing ordered index"

(* --- non-equijoins (§3.3.5) ----------------------------------------------- *)

type inequality = Lt | Le | Gt | Ge

let inequality_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

(* "Non-equijoins other than 'not equals' can make use of ordering of the
   data, so the Tree Join should be used for such (<, <=, >, >=) joins."
   The join predicate is [outer_key op inner_key].  For </<= the inner
   index is scanned upward from the outer key with the pruned [iter_from];
   for >/>= the in-order prefix of the index up to the outer key is
   scanned and the walk stops at the first non-qualifying element. *)
let tree_inequality_join ?outer_filter ?outer_rows ~op ~outer ~inner () =
  match find_tree_index inner with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Join.tree_inequality_join: no ordered index on %s column %d"
           (Relation.name inner.rel) inner.col)
  | Some (module Inst : Relation.INSTANCE) ->
      let out = result_list outer inner in
      let index = Inst.def.Relation.idx_name in
      let exception Stop in
      iter_outer ?outer_filter ?outer_rows outer (fun o ->
            let ko = key outer o in
            match op with
            | Lt | Le ->
                (* outer < inner  ⟺  scan inner keys upward from outer *)
                Relation.lookup_from ~index inner.rel [| ko |] (fun i ->
                    if op = Le || vcmp (key inner i) ko > 0 then
                      Temp_list.append out [| o; i |])
            | Gt | Ge -> (
                (* outer > inner  ⟺  in-order prefix of the inner index *)
                try
                  Relation.iter_via ~index inner.rel (fun i ->
                      let c = vcmp (key inner i) ko in
                      if c < 0 || (c = 0 && op = Ge) then
                        Temp_list.append out [| o; i |]
                      else raise Stop)
                with Stop -> ()));
      out

(* --- pointer-based joins (§2.1) ------------------------------------------ *)

(* The (method, outer, inner) key under which the feedback store
   aggregates estimated-vs-actual join cardinalities. *)
let feedback_key_of ~method_name ~outer_name ~inner_name =
  Printf.sprintf "join/%s/%s*%s" method_name outer_name inner_name

let feedback_key ~method_ ~outer ~inner =
  feedback_key_of ~method_name:(method_name method_)
    ~outer_name:(Relation.name outer.rel)
    ~inner_name:(Relation.name inner.rel)

(* The outer side of a planned join: [outer_path] is the plan's leading
   access path with the selection's predicates.  An index path runs here,
   inside the join's span, and the kernel reads the temporary list it
   returns; a scan path — or a kernel that must walk the outer relation in
   join-key order ([ordered]: Tree Merge) — folds the predicates into the
   outer loop's filter instead. *)
let outer_input ?(ordered = false) ?outer_filter ?outer_path rel =
  match outer_path with
  | None -> (outer_filter, None)
  | Some (((Select.Hash_lookup _ | Select.Tree_lookup _) as path), predicates)
    when not ordered ->
      (outer_filter, Some (Select.run rel ~path ~predicates))
  | Some (_, predicates) ->
      let matches o = List.for_all (Select.matches o) predicates in
      let filter =
        match outer_filter with
        | None -> matches
        | Some f -> fun o -> f o && matches o
      in
      (Some filter, None)

(* Query 1 style: the outer relation's foreign-key column already holds
   tuple pointers, so the "join" just follows them — from the selected
   outer tuples only. *)
let precomputed ?est_rows ?outer_path ~outer ~ref_col ~inner_schema () =
  Trace.with_span "join" @@ fun () ->
  if Trace.active () then begin
    Trace.add_attr "method" "Precomputed";
    Trace.add_attr "outer" (Relation.name outer);
    match est_rows with
    | Some e -> Trace.add_attr "est_rows" (string_of_int e)
    | None -> ()
  end;
  let out =
    Temp_list.create
      (Descriptor.join
         (Descriptor.of_schema (Relation.schema outer))
         (Descriptor.of_schema inner_schema))
  in
  let outer_filter, outer_rows = outer_input ?outer_path outer in
  iter_outer ?outer_filter ?outer_rows { rel = outer; col = ref_col } (fun o ->
      match Tuple.get o ref_col with
      | Value.Ref i -> Temp_list.append out [| o; i |]
      | Value.Refs is -> List.iter (fun i -> Temp_list.append out [| o; i |]) is
      | Value.Null -> ()
      | v ->
          invalid_arg
            (Printf.sprintf "Join.precomputed: column %d holds %s, not pointers"
               ref_col (Value.to_string v)));
  let actual = Temp_list.length out in
  if Trace.active () then Trace.add_attr "rows" (string_of_int actual);
  (match est_rows with
  | Some est ->
      Feedback.observe
        ~key:
          (feedback_key_of ~method_name:"Precomputed"
             ~outer_name:(Relation.name outer) ~inner_name:"*")
        ~est ~actual
  | None -> ());
  out

(* Query 2 style: join a selected set of inner tuples back to the outer
   relation, comparing tuple {e pointers} rather than data values — cheaper
   than string comparison and equivalent in cost to integer comparison. *)
let pointer_join ~outer ~ref_col ~selected =
  let inner_desc = Temp_list.descriptor selected in
  let out =
    Temp_list.create
      (Descriptor.join (Descriptor.of_schema (Relation.schema outer)) inner_desc)
  in
  (* Hash the selected tuples' identities. *)
  let wanted = Hashtbl.create (2 * Temp_list.length selected) in
  Temp_list.iter selected (fun entry ->
      Counters.bump_hash_calls ();
      Hashtbl.replace wanted (Tuple.id (Tuple.resolve entry.(0))) entry.(0));
  Relation.iter outer (fun o ->
      let consider i =
        Counters.bump_hash_calls ();
        match Hashtbl.find_opt wanted (Tuple.id (Tuple.resolve i)) with
        | Some i -> Temp_list.append out [| o; i |]
        | None -> ()
      in
      match Tuple.get o ref_col with
      | Value.Ref i -> consider i
      | Value.Refs is -> List.iter consider is
      | Value.Null -> ()
      | v ->
          invalid_arg
            (Printf.sprintf
               "Join.pointer_join: column %d holds %s, not pointers" ref_col
               (Value.to_string v)));
  out

(* --- uniform driver -------------------------------------------------------- *)

let run ?pool ?(build_outer = false) ?outer_filter ?outer_path ?est_rows method_
    ~outer ~inner =
  Trace.with_span "join" @@ fun () ->
  (* Every method reads through the snapshot-safe [Relation] access
     paths (the tree methods through the index reads, which honour an
     MVCC snapshot).  The batched parallel variants collect (key, tuple)
     pairs on the coordinator — where the snapshot is installed — through
     [Relation.iter_batches], so their worker jobs never dereference a
     tuple and the pool is safe to keep; only the scalar ablation
     ([MMDB_BATCH=0]) drops it under a snapshot (its workers would read
     through a snapshot-free DLS). *)
  let snapshot = Version_store.current_snapshot () <> None in
  let pool = if snapshot && not (Batch.enabled ()) then None else pool in
  if Trace.active () then begin
    Trace.add_attr "method" (method_name method_);
    Trace.add_attr "outer" (Relation.name outer.rel);
    Trace.add_attr "inner" (Relation.name inner.rel);
    (match est_rows with
    | Some e -> Trace.add_attr "est_rows" (string_of_int e)
    | None -> ());
    if Batch.enabled () then
      Trace.add_attr "batch" (string_of_int (Batch.size ()))
  end;
  let rp0, rv0 = skew_stats () in
  if Trace.active () && build_outer && method_ = Hash_join then
    Trace.add_attr "build" "outer";
  let outer_filter, outer_rows =
    outer_input ~ordered:(method_ = Tree_merge) ?outer_filter ?outer_path
      outer.rel
  in
  let out =
    match method_ with
    | Nested_loops -> nested_loops ?outer_filter ?outer_rows ~outer ~inner ()
    | Hash_join ->
        hash_join ?pool ~build_outer ?outer_filter ?outer_rows ~outer ~inner ()
    | Tree_join -> tree_join ?outer_filter ?outer_rows ~outer ~inner ()
    | Sort_merge -> sort_merge ?pool ?outer_filter ?outer_rows ~outer ~inner ()
    | Tree_merge -> tree_merge ?outer_filter ~outer ~inner ()
  in
  let actual = Temp_list.length out in
  if Trace.active () then begin
    let rp1, rv1 = skew_stats () in
    if rp1 > rp0 then Trace.add_attr "repartitions" (string_of_int (rp1 - rp0));
    if rv1 > rv0 then
      Trace.add_attr "role_reversals" (string_of_int (rv1 - rv0));
    Trace.add_attr "rows" (string_of_int actual)
  end;
  (match est_rows with
  | Some est ->
      Feedback.observe ~key:(feedback_key ~method_ ~outer ~inner) ~est ~actual
  | None -> ());
  out
