(** Relations: partitioned tuple storage where {e all} access goes through
    an index.

    §2.1: "the relations will not be allowed to be traversed directly, so
    all access to a relation is through an index.  (Note that this requires
    all relations to have at least one index.)"  Accordingly [create]
    demands a primary index definition, and the public scan {!iter} walks
    the primary index.  Direct partition iteration exists only for the
    recovery subsystem ({!iter_storage}).

    Indices hold tuple pointers, not attribute values (§2.2); each index is
    an instance of one of the eight {!Mmdb_index} structures, comparing
    tuples by extracting the indexed columns through the pointer. *)

type structure =
  | T_tree
  | Avl_tree
  | B_tree
  | Array_index
  | Chained_hash
  | Extendible_hash
  | Linear_hash
  | Mod_linear_hash

let structure_module : structure -> (module Mmdb_index.Index_intf.S) =
  function
  | T_tree -> (module Mmdb_index.Ttree)
  | Avl_tree -> (module Mmdb_index.Avl_tree)
  | B_tree -> (module Mmdb_index.Btree)
  | Array_index -> (module Mmdb_index.Array_index)
  | Chained_hash -> (module Mmdb_index.Chained_hash)
  | Extendible_hash -> (module Mmdb_index.Extendible_hash)
  | Linear_hash -> (module Mmdb_index.Linear_hash)
  | Mod_linear_hash -> (module Mmdb_index.Mod_linear_hash)

let structure_is_ordered s =
  let (module I) = structure_module s in
  I.kind = Mmdb_index.Index_intf.Ordered

type index_def = {
  idx_name : string;
  columns : int array;  (** column positions; multi-attribute allowed *)
  unique : bool;
  structure : structure;
}

(* A retained entry: an index entry a snapshot may still need after the
   live entry moved to a new key or left with its tuple.  It keeps the
   tuple (same identity and version chain), the frozen pre-image whose
   key it sorts under, and the run of versions [g_lo .. g_hi] that held
   that key; the interval from [g_lo.v_begin] to [g_hi.v_end] is when
   the key was valid.  [g_serial] keeps entries of one tuple and key
   distinct (an A→B→A→B cycle retains A and B twice). *)
type ghost = {
  g_tuple : Tuple.t;
  g_fields : Value.t array;
  g_lo : Value.version;
  g_hi : Value.version;
  g_serial : int;
}

module type INSTANCE = sig
  module I : Mmdb_index.Index_intf.S

  val def : index_def
  val handle : Tuple.t I.t
  val retained : ghost I.t option ref
end

type index_instance = (module INSTANCE)

type t = {
  schema : Schema.t;
  slot_capacity : int;
  heap_capacity : int;
  mutable partitions : Partition.t list;  (** newest first *)
  mutable next_pid : int;
  mutable indices : index_instance list;  (** primary index first *)
  mutable count : int;
  mutable ghost_serial : int;
  view : Version_store.view;
      (** MVCC membership view for the fallback scan, and the sequence
          lock snapshot readers validate index traversals against *)
}

let schema t = t.schema
let name t = t.schema.Schema.name
let slot_capacity t = t.slot_capacity
let heap_capacity t = t.heap_capacity
let partitions t = List.rev t.partitions
let view t = t.view

let def_of (module Inst : INSTANCE) = Inst.def

let indices t = t.indices
let index_defs t = List.map def_of t.indices

(* --- traversal budget --------------------------------------------------- *)

(* A snapshot reader may traverse an index while the writer is half-way
   through a rebalance.  The sequence lock rejects such a traversal
   afterwards, but it must also terminate: every comparison against a
   probe charges this domain's meter, and a reader that runs it dry
   abandons the try.  Outside a snapshot read the meter is effectively
   infinite. *)
exception Torn

type meter = { mutable left : int }

let meter_key = Domain.DLS.new_key (fun () -> { left = max_int })

let charge () =
  let m = Domain.DLS.get meter_key in
  m.left <- m.left - 1;
  if m.left < 0 then raise Torn

let metered ~is_probe cmp a b =
  if is_probe a || is_probe b then charge ();
  cmp a b

let make_instance ~expected (def : index_def) : index_instance =
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Relation: negative column in index")
    def.columns;
  if Array.length def.columns = 0 then
    invalid_arg "Relation: index needs at least one column";
  let (module I) = structure_module def.structure in
  let cmp =
    metered ~is_probe:Tuple.is_probe
      (if def.unique then Tuple.compare_stored ~columns:def.columns
       else Tuple.compare_keyed_stored ~columns:def.columns)
  in
  let hash = Tuple.hash_stored ~columns:def.columns in
  let handle =
    (* With the identity tie-break every stored element is distinct, so the
       underlying structure always runs in duplicate-accepting mode except
       when enforcing uniqueness. *)
    I.create ~duplicates:(not def.unique) ~expected ~cmp ~hash ()
  in
  (module struct
    module I = I

    let def = def
    let handle = handle
    let retained = ref None
  end : INSTANCE)

(* Retained entries live in a second instance of the index's own
   structure, created on first use.  It is never unique (a deleted row's
   key may be re-inserted live) and orders by key, tuple identity, then
   serial; a probe ghost (serial -1) is a wildcard past the key. *)
let ghost_cmp ~columns a b =
  let rec go i =
    if i >= Array.length columns then
      if a.g_serial < 0 || b.g_serial < 0 then 0
      else
        let c = Int.compare (Tuple.id a.g_tuple) (Tuple.id b.g_tuple) in
        if c <> 0 then c else Int.compare a.g_serial b.g_serial
    else
      let c = Value.compare a.g_fields.(columns.(i)) b.g_fields.(columns.(i)) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let ghost_probe (probe : Tuple.t) =
  let v = { Value.v_fields = [||]; v_begin = 0; v_end = 0 } in
  { g_tuple = probe; g_fields = probe.Value.fields; g_lo = v; g_hi = v; g_serial = -1 }

let insert_ghost (module Inst : INSTANCE) g =
  let r =
    match !Inst.retained with
    | Some r -> r
    | None ->
        let columns = Inst.def.columns in
        let hash g =
          Array.fold_left
            (fun acc c -> (acc * 31) + Value.hash g.g_fields.(c))
            17 columns
        in
        let r =
          Inst.I.create ~duplicates:true
            ~cmp:(metered ~is_probe:(fun g -> g.g_serial < 0) (ghost_cmp ~columns))
            ~hash ()
        in
        Inst.retained := Some r;
        r
  in
  ignore (Inst.I.insert r g);
  Atomic.incr Version_store.retained_entries

let create ?(slot_capacity = Partition.default_slot_capacity)
    ?(heap_capacity = Partition.default_heap_capacity) ?(expected = 1024)
    ~schema ~primary () =
  Array.iter
    (fun c ->
      if c >= Schema.arity schema then
        invalid_arg "Relation.create: index column out of schema range")
    primary.columns;
  {
    schema;
    slot_capacity;
    heap_capacity;
    partitions = [];
    next_pid = 0;
    indices = [ make_instance ~expected primary ];
    count = 0;
    ghost_serial = 0;
    view = Version_store.make_view ();
  }

let primary t =
  match t.indices with
  | inst :: _ -> inst
  | [] -> assert false (* create always installs a primary index *)

let find_index t idx_name =
  List.find_opt
    (fun (module Inst : INSTANCE) -> String.equal Inst.def.idx_name idx_name)
    t.indices

let find_index_exn t idx_name =
  match find_index t idx_name with
  | Some inst -> inst
  | None ->
      invalid_arg
        (Printf.sprintf "Relation %s: no index named %S" (name t) idx_name)

(* Find an index whose key is exactly [columns]; prefer ordered structures
   when [ordered] is requested. *)
let find_index_on ?(ordered = false) t ~columns =
  List.find_opt
    (fun (module Inst : INSTANCE) ->
      Inst.def.columns = columns
      && ((not ordered) || Inst.I.kind = Mmdb_index.Index_intf.Ordered))
    t.indices

(* --- tuple placement ------------------------------------------------- *)

let new_partition t =
  let p =
    Partition.create ~slot_capacity:t.slot_capacity
      ~heap_capacity:t.heap_capacity ~pid:t.next_pid ()
  in
  t.next_pid <- t.next_pid + 1;
  t.partitions <- p :: t.partitions;
  p

let partition_of_exn t pid =
  match List.find_opt (fun p -> Partition.pid p = pid) t.partitions with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Relation %s: no partition %d" (name t) pid)

let place_tuple t tuple =
  let heap_need = Tuple.heap_bytes tuple in
  if heap_need > t.heap_capacity then
    Error
      (Printf.sprintf
         "tuple needs %d heap bytes, exceeding partition heap capacity %d"
         heap_need t.heap_capacity)
  else begin
    let rec try_parts = function
      | [] ->
          (* A fresh partition can only refuse the tuple under a degenerate
             configuration (e.g. zero slot capacity).  Surface it as a
             typed error rather than aborting the process: a server must
             answer the offending request and keep running. *)
          let p = new_partition t in
          (match Partition.add p tuple with
          | Partition.Added -> Ok ()
          | Slots_full ->
              Error
                (Printf.sprintf
                   "fresh partition rejected tuple: slot capacity %d too small"
                   t.slot_capacity)
          | Heap_full ->
              Error
                (Printf.sprintf
                   "fresh partition rejected tuple: %d heap bytes exceed \
                    capacity %d"
                   heap_need t.heap_capacity))
      | p :: rest -> (
          match Partition.add p tuple with
          | Partition.Added -> Ok ()
          | Slots_full | Heap_full -> try_parts rest)
    in
    try_parts t.partitions
  end

(* --- index plumbing --------------------------------------------------- *)

let idx_insert (module Inst : INSTANCE) tuple = Inst.I.insert Inst.handle tuple
let idx_delete (module Inst : INSTANCE) tuple = Inst.I.delete Inst.handle tuple

(* Every index mutation and every in-place write to an indexed column
   happens inside [writing], with the sequence lock odd. *)
let writing t f = Version_store.writing t.view f

let probe_for t (def : index_def) key =
  if Array.length key <> Array.length def.columns then
    invalid_arg
      (Printf.sprintf "Relation %s: key arity %d, index %s wants %d" (name t)
         (Array.length key) def.idx_name
         (Array.length def.columns));
  let fields = Array.make (Schema.arity t.schema) Value.Null in
  Array.iteri (fun j c -> fields.(c) <- key.(j)) def.columns;
  Tuple.probe fields

(* --- retained entries ----------------------------------------------------- *)

let drop_ghost (module Inst : INSTANCE) g =
  match !Inst.retained with
  | None -> ()
  | Some r ->
      if Inst.I.delete r g then Atomic.decr Version_store.retained_entries;
      if Inst.I.size r = 0 then Inst.retained := None

let add_ghost t inst tuple ~lo ~hi =
  let g =
    {
      g_tuple = tuple;
      g_fields = hi.Value.v_fields;
      g_lo = lo;
      g_hi = hi;
      g_serial = t.ghost_serial;
    }
  in
  t.ghost_serial <- t.ghost_serial + 1;
  insert_ghost inst g;
  Version_store.on_rollback t.view (fun () -> writing t (fun () -> drop_ghost inst g))

(* The run of versions holding [tuple]'s current key in each index of
   [insts] — captured before the key changes or the entries go. *)
let key_runs insts tuple =
  let resolved = Tuple.resolve tuple in
  List.filter_map
    (fun ((module Inst : INSTANCE) as inst) ->
      Option.map
        (fun run -> (inst, run))
        (Version_store.key_run ~columns:Inst.def.columns resolved))
    insts

let add_ghosts t tuple runs =
  List.iter (fun (inst, (lo, hi)) -> add_ghost t inst tuple ~lo ~hi) runs

(* Epoch GC for one relation: prune the membership view, then drop the
   retained entries whose key-validity interval ends at or below the
   horizon — no live or future snapshot can fall inside it. *)
let gc t ~horizon =
  let reclaimed = Version_store.gc_view t.view ~horizon in
  List.iter
    (fun ((module Inst : INSTANCE) as inst) ->
      match !Inst.retained with
      | None -> ()
      | Some r ->
          let dead = ref [] in
          Inst.I.iter r (fun g ->
              if g.g_hi.Value.v_end <= horizon then dead := g :: !dead);
          if !dead <> [] then
            writing t (fun () -> List.iter (drop_ghost inst) !dead))
    t.indices;
  reclaimed

let retained_count t =
  List.fold_left
    (fun n (module Inst : INSTANCE) ->
      match !Inst.retained with None -> n | Some r -> n + Inst.I.size r)
    0 t.indices

(* --- MVCC snapshot reads ----------------------------------------------- *)

(* A statement holding snapshot [s] reads through the live indices: it
   traverses the live instance and the retained instance of the index,
   keeps the entries {!Version_store.live_entry_visible} /
   {!Version_store.run_visible} grant [s], and hands them on only if the
   sequence lock was even and unchanged across the traversal — a
   concurrent writer may have been rebalancing.  Comparisons read stored
   keys, so a traversal of a stable structure is exact; a torn one may
   raise, loop (cut by the meter and the emission cap) or miss entries,
   and each of those is a failed try.  Ordered scans merge the two
   streams by the key as of [s].  After [max_tries] failed tries the read
   falls back to the visibility-filtered scan of the membership view,
   sorted by the index key (O(n log n), counted in
   [snapshot_fallback_scans]); the same scan is the reference the tests
   hold the index path to. *)
type scan = All | Matches of Tuple.t | Range of Tuple.t * Tuple.t | From of Tuple.t

let max_tries = 3

(* The fallback: every tuple of the view visible at [s], sorted by the
   index key — O(n log n), against the index path's O(log n). *)
let snapshot_tuples t s ~columns =
  let visible =
    List.filter (Version_store.visible_at s)
      (Atomic.get t.view.Version_store.tuples)
  in
  List.sort (Tuple.compare_keyed ~columns) visible

let fallback_scan t s (def : index_def) scan =
  let cmp = Tuple.compare_keyed ~columns:def.columns in
  let keep =
    match scan with
    | All -> fun _ -> true
    | Matches p -> fun tu -> cmp p tu = 0
    | Range (lo, hi) -> fun tu -> cmp lo tu <= 0 && cmp tu hi <= 0
    | From lo -> fun tu -> cmp lo tu <= 0
  in
  List.filter keep (snapshot_tuples t s ~columns:def.columns)

let force_fallback_key = Domain.DLS.new_key (fun () -> false)

let with_scan_fallback f =
  let was = Domain.DLS.get force_fallback_key in
  Domain.DLS.set force_fallback_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set force_fallback_key was) f

(* One traversal of the live and retained instances: the entries [s]
   sees, each list in structure order.  Raises [Torn] past its budget. *)
let collect s (module Inst : INSTANCE) scan =
  let columns = Inst.def.columns in
  let retained = !Inst.retained in
  let cap =
    64 + (2 * Inst.I.size Inst.handle)
    + match retained with Some r -> 2 * Inst.I.size r | None -> 0
  in
  let m = Domain.DLS.get meter_key in
  m.left <- 4 * cap;
  let emitted = ref 0 in
  let tick () =
    incr emitted;
    if !emitted > cap then raise Torn
  in
  let live = ref [] and ghosts = ref [] in
  let on_live tu =
    tick ();
    if Version_store.live_entry_visible s ~columns (Tuple.resolve tu) then
      live := tu :: !live
  in
  let on_ghost g =
    tick ();
    if Version_store.run_visible s ~lo:g.g_lo ~hi:g.g_hi (Tuple.resolve g.g_tuple)
    then ghosts := g :: !ghosts
  in
  (match scan with
  | All -> Inst.I.iter Inst.handle on_live
  | Matches p -> Inst.I.iter_matches Inst.handle p on_live
  | Range (lo, hi) -> Inst.I.range Inst.handle ~lo ~hi on_live
  | From lo -> Inst.I.iter_from Inst.handle lo on_live);
  (match retained with
  | None -> ()
  | Some r -> (
      match scan with
      | All -> Inst.I.iter r on_ghost
      | Matches p -> Inst.I.iter_matches r (ghost_probe p) on_ghost
      | Range (lo, hi) ->
          Inst.I.range r ~lo:(ghost_probe lo) ~hi:(ghost_probe hi) on_ghost
      | From lo -> Inst.I.iter_from r (ghost_probe lo) on_ghost));
  (List.rev !live, List.rev !ghosts)

(* Merge the live and retained streams of an ordered index by key as of
   [s] (the key each was emitted under), then tuple identity. *)
let merge_by_key s ~columns live ghosts =
  let cmp tu g =
    let fields = Version_store.fields_at s (Tuple.resolve tu) in
    let rec go i =
      if i >= Array.length columns then
        Int.compare (Tuple.id tu) (Tuple.id g.g_tuple)
      else
        let c = Value.compare fields.(columns.(i)) g.g_fields.(columns.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let rec go acc live ghosts =
    match (live, ghosts) with
    | [], gs -> List.rev_append acc (List.map (fun g -> g.g_tuple) gs)
    | l, [] -> List.rev_append acc l
    | tu :: l, g :: gs ->
        if cmp tu g <= 0 then go (tu :: acc) l ghosts
        else go (g.g_tuple :: acc) live gs
  in
  go [] live ghosts

(* The sequence number to start a try from: a writer inside its section
   is given a bounded spin to leave it (sections are a few index
   operations long) rather than burning a try; still odd after the spin
   counts as a failed try. *)
let stable_seq seq =
  let rec go spins =
    let v = Atomic.get seq in
    if v land 1 = 0 || spins = 0 then v
    else begin
      Domain.cpu_relax ();
      go (spins - 1)
    end
  in
  go 4096

let snapshot_read t s ((module Inst : INSTANCE) as inst) scan =
  let ordered = Inst.I.kind = Mmdb_index.Index_intf.Ordered in
  (match scan with
  | (Range _ | From _) when not ordered ->
      raise
        (Mmdb_index.Index_intf.Unsupported
           (Inst.I.name ^ ": range scans need an ordered index"))
  | _ -> ());
  let rec attempt tries =
    if tries >= max_tries then begin
      Atomic.incr Version_store.snapshot_fallback_scans;
      fallback_scan t s Inst.def scan
    end
    else
      let v0 = stable_seq t.view.Version_store.seq in
      let got =
        (* an index dropped since the statement resolved it is no longer
           maintained; the view scan serves its reads *)
        if v0 land 1 = 1 || not (List.memq inst t.indices) then None
        else
          match collect s inst scan with
          | c -> if Atomic.get t.view.Version_store.seq = v0 then Some c else None
          | exception _ -> None
      in
      (Domain.DLS.get meter_key).left <- max_int;
      match got with
      | Some (live, []) ->
          Atomic.incr Version_store.snapshot_index_reads;
          live
      | Some (live, ghosts) ->
          Atomic.incr Version_store.snapshot_index_reads;
          if ordered then merge_by_key s ~columns:Inst.def.columns live ghosts
          else live @ List.map (fun g -> g.g_tuple) ghosts
      | None ->
          Atomic.incr Version_store.snapshot_retries;
          attempt (tries + 1)
  in
  if Domain.DLS.get force_fallback_key then fallback_scan t s Inst.def scan
  else attempt 0

let instance t index =
  match index with None -> primary t | Some n -> find_index_exn t n

(* The one dispatch every read entry point shares: under a snapshot the
   validated index read, otherwise the structure's own traversal. *)
let read t ((module Inst : INSTANCE) as inst) scan f =
  match Version_store.current_snapshot () with
  | Some s -> List.iter f (snapshot_read t s inst scan)
  | None -> (
      match scan with
      | All -> Inst.I.iter Inst.handle f
      | Matches p -> Inst.I.iter_matches Inst.handle p f
      | Range (lo, hi) -> Inst.I.range Inst.handle ~lo ~hi f
      | From lo -> Inst.I.iter_from Inst.handle lo f)

(* Live count in O(1): what the estimators use. *)
let cardinality t = t.count

let count t =
  match Version_store.current_snapshot () with
  | None -> t.count
  | Some s ->
      List.fold_left
        (fun n tu -> if Version_store.visible_at s tu then n + 1 else n)
        0
        (Atomic.get t.view.Version_store.tuples)

(* After a lazy delete the view keeps a tombstoned entry for the GC to
   sweep; once dead entries dominate, compact opportunistically (we are
   on the writer's thread, which is the serialization the GC needs). *)
let maybe_sweep t =
  if
    Version_store.enabled ()
    && Version_store.view_size t.view > (2 * t.count) + 64
  then ignore (gc t ~horizon:(Version_store.horizon ()))

(* --- public operations ------------------------------------------------ *)

let insert t values =
  match Schema.check_tuple t.schema values with
  | Error msg -> Error msg
  | Ok () -> (
      let tuple = Tuple.make (Array.copy values) in
      (* invisible to snapshots until [on_insert] publishes it *)
      Version_store.prepare_insert tuple;
      let placed =
        writing t @@ fun () ->
        (* Enter the tuple into every index, unwinding on a uniqueness
           violation. *)
        let rec enter done_ = function
          | [] -> Ok ()
          | inst :: rest ->
              if idx_insert inst tuple then enter (inst :: done_) rest
              else begin
                List.iter (fun i -> ignore (idx_delete i tuple)) done_;
                Error
                  (Printf.sprintf "unique index %s violated"
                     (def_of inst).idx_name)
              end
        in
        match enter [] t.indices with
        | Error _ as e -> e
        | Ok () -> (
            match place_tuple t tuple with
            | Error _ as e ->
                List.iter (fun i -> ignore (idx_delete i tuple)) t.indices;
                e
            | Ok () -> Ok ())
      in
      match placed with
      | Error msg -> Error msg
      | Ok () ->
          t.count <- t.count + 1;
          Version_store.on_insert t.view tuple;
          Ok tuple)

let delete_tuple t tuple =
  let resolved = Tuple.resolve tuple in
  if resolved.Value.pid < 0 then false
  else begin
    let p = partition_of_exn t resolved.Value.pid in
    if Partition.remove p resolved then begin
      let runs =
        if Version_store.ensure_history resolved then key_runs t.indices tuple
        else []
      in
      writing t (fun () ->
          add_ghosts t tuple runs;
          List.iter (fun inst -> ignore (idx_delete inst tuple)) t.indices);
      t.count <- t.count - 1;
      Version_store.on_delete t.view resolved;
      maybe_sweep t;
      true
    end
    else false
  end

let iter_matches ?index t key f =
  let inst = instance t index in
  read t inst (Matches (probe_for t (def_of inst) key)) f

let lookup ?index t key =
  let acc = ref [] in
  iter_matches ?index t key (fun tu -> acc := tu :: !acc);
  List.rev !acc

let lookup_one ?index t key =
  match lookup ?index t key with [] -> None | tu :: _ -> Some tu

let lookup_range ?index t ~lo ~hi f =
  let inst = instance t index in
  let def = def_of inst in
  read t inst (Range (probe_for t def lo, probe_for t def hi)) f

let lookup_from ?index t key f =
  let inst = instance t index in
  read t inst (From (probe_for t (def_of inst) key)) f

(* Scan through the primary index, honouring the all-access-via-index rule. *)
let iter t f = read t (primary t) All f
let iter_via ?index t f = read t (instance t index) All f

let to_seq ?index t =
  let ((module Inst : INSTANCE) as inst) = instance t index in
  match Version_store.current_snapshot () with
  | Some s -> List.to_seq (snapshot_read t s inst All)
  | None -> Inst.I.to_seq Inst.handle

(* Batched scan production: fill fixed-size batches of tuple pointers
   with the values of [key_col] extracted into the batch's key slice.
   Under a snapshot the version resolution happens here, at batch-fill
   time, instead of per downstream [Tuple.get] — this is what makes the
   vectorized kernels snapshot-safe on cached keys.  Extraction is
   uncounted ({!Tuple.peek}): the consuming kernel accounts the §3.1
   logical dereferences itself, so batched and tuple-at-a-time counter
   totals match exactly.  The emission order is {!iter}'s. *)
let iter_batches ?key_col ?size t f = Batch.fill ?key_col ?size (iter t) f

(* Direct partition access — recovery subsystem only. *)
let iter_storage t f = List.iter (fun p -> Partition.iter p f) (partitions t)

(* Rebuild the membership view from storage.  Needed when MVCC is turned
   on at runtime: inserts made while it was off bypassed view
   maintenance.  Only rebuilds when entries are {e missing} ([size <
   count]) — a view larger than the relation legitimately carries dead
   entries old snapshots still see, and must not be clobbered. *)
let ensure_view t =
  if Version_store.enabled () && Version_store.view_size t.view < t.count then begin
    let acc = ref [] in
    iter_storage t (fun tu -> acc := tu :: !acc);
    Atomic.set t.view.Version_store.tuples !acc;
    Atomic.set t.view.Version_store.size (List.length !acc)
  end

(* A new index must serve snapshots already running: derive its retained
   entries from the version chains in the view — every run of versions
   holding one key that a snapshot at or above the horizon can still
   fall inside, except a live tuple's newest run holding its stored key
   (the live entry).  A live tuple's head version never has an end
   stamp; a deleted one's has, or its delete is pending in this scope. *)
let derive_retained t inst ~columns =
  let horizon = Version_store.horizon () in
  let pending = Version_store.pending_deletes t.view in
  List.iter
    (fun tu ->
      let r = Tuple.resolve tu in
      let live =
        match r.Value.vers.Value.vs with
        | head :: _ ->
            head.Value.v_end = Version_store.unstamped
            && Version_store.same_key ~columns head.Value.v_fields r.Value.fields
            && not (List.memq r pending)
        | [] -> false
      in
      let runs = Version_store.key_runs ~columns r.Value.vers.Value.vs in
      List.iter
        (fun ((lo : Value.version), (hi : Value.version)) ->
          if lo.Value.v_begin <> Version_store.unstamped && hi.Value.v_end > horizon
          then add_ghost t inst tu ~lo ~hi)
        (if live then List.tl runs else runs))
    (Atomic.get t.view.Version_store.tuples)

let create_index ?(structure = T_tree) ?(unique = false) t ~idx_name ~columns
    =
  if find_index t idx_name <> None then
    Error (Printf.sprintf "index %s already exists" idx_name)
  else begin
    Array.iter
      (fun c ->
        if c < 0 || c >= Schema.arity t.schema then
          invalid_arg "Relation.create_index: column out of range")
      columns;
    let def = { idx_name; columns; unique; structure } in
    let inst = make_instance ~expected:(max 16 t.count) def in
    let ok = ref true in
    (* Sort-based bulk build: collect the live tuples once off the
       primary index, sort them by the new index's key with a
       cache-conscious kernel, and insert in ascending key order —
       ordered structures then fill by appending at the tail instead of
       rebalancing against random arrivals, the "fast index
       reconstruction via sorted load" idea.  Hash structures skip the
       sort (insertion order is irrelevant to them).  The uniqueness
       check stays with [idx_insert]: adjacent duplicates fail the
       insert exactly as random-order ones did. *)
    let tuples = ref [] and n = ref 0 in
    (let (module P : INSTANCE) = primary t in
     P.I.iter P.handle (fun tuple ->
         tuples := tuple :: !tuples;
         incr n));
    (* [Array.make] from a young probe would force a minor collection *)
    let arr = Mmdb_util.Arrays.of_rev_list !tuples in
    if structure_is_ordered structure && !n > 1 then
      Mmdb_util.Qsort.sort_with
        (Mmdb_util.Qsort.choose ~n:!n ~batched:false)
        ~cmp:(Tuple.compare_keyed_stored ~columns) arr;
    Array.iter (fun tuple -> if !ok && not (idx_insert inst tuple) then ok := false) arr;
    if !ok then begin
      if Version_store.enabled () then derive_retained t inst ~columns;
      writing t (fun () -> t.indices <- t.indices @ [ inst ]);
      Ok ()
    end
    else
      Error
        (Printf.sprintf "cannot build unique index %s: duplicate key present"
           idx_name)
  end

let drop_index t ~idx_name =
  match t.indices with
  | (module P : INSTANCE) :: _ when String.equal P.def.idx_name idx_name ->
      Error "cannot drop the primary index"
  | _ -> (
      match find_index t idx_name with
      | None -> Error (Printf.sprintf "no index named %s" idx_name)
      | Some (module Inst : INSTANCE) ->
          (match !Inst.retained with
          | Some r ->
              ignore
                (Atomic.fetch_and_add Version_store.retained_entries
                   (-Inst.I.size r))
          | None -> ());
          writing t (fun () ->
              t.indices <-
                List.filter
                  (fun (module I : INSTANCE) ->
                    not (String.equal I.def.idx_name idx_name))
                  t.indices);
          Ok ())

(* Update one field of a tuple.  Pointer-based indices make this cheap: only
   indices covering the column need their (pointer) entries repositioned.
   If a string grows past the partition's heap budget the tuple record moves
   to another partition, leaving a forwarding address (§2.1 footnote 1).
   When history is kept, each repositioned entry leaves a retained entry
   under the key it held, for the snapshots that still see that key. *)
let update_field t tuple col v =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Relation.update_field: column out of range";
  if not (Schema.value_fits (Schema.column_type t.schema col) v) then
    Error "value does not fit column type"
  else begin
    let resolved = Tuple.resolve tuple in
    let history = Version_store.ensure_history resolved in
    let affected =
      List.filter
        (fun (module Inst : INSTANCE) -> Array.mem col Inst.def.columns)
        t.indices
    in
    (* rewriting a key with its own value leaves the entry's run open *)
    let rekeyed = Value.compare (Tuple.get_raw resolved col) v <> 0 in
    let runs = if history && rekeyed then key_runs affected tuple else [] in
    let apply () =
      (* Remove stale entries while the old key is still in place. *)
      List.iter (fun inst -> ignore (idx_delete inst tuple)) affected;
      let old_v = Tuple.get_raw resolved col in
      let delta = Value.byte_width v - Value.byte_width old_v in
      let heap_delta =
        match (old_v, v) with
        | Value.Str _, _ | _, Value.Str _ -> delta
        | _ -> 0
      in
      let p = partition_of_exn t resolved.Value.pid in
      let moved =
        if heap_delta <> 0 && not (Partition.adjust_heap p ~delta:heap_delta)
        then begin
          (* Heap overflow: move the record, forwarding the old address. *)
          ignore (Partition.remove p resolved);
          let fields = Array.copy resolved.Value.fields in
          fields.(col) <- v;
          let fresh = Tuple.move_record resolved ~fields in
          match place_tuple t fresh with
          | Ok () -> true
          | Error _ ->
              (* Undo: put the old record back unchanged. *)
              resolved.Value.forward <- None;
              ignore (Partition.add p resolved);
              false
        end
        else begin
          Tuple.set resolved col v;
          true
        end
      in
      let rec reenter done_ = function
        | [] -> Ok ()
        | inst :: rest ->
            if idx_insert inst tuple then reenter (inst :: done_) rest
            else begin
              List.iter (fun i -> ignore (idx_delete i tuple)) done_;
              Error
                (Printf.sprintf "unique index %s violated by update"
                   (def_of inst).idx_name)
            end
      in
      if not moved then begin
        (* Field unchanged; restore index entries. *)
        List.iter (fun inst -> ignore (idx_insert inst tuple)) affected;
        Error "update would overflow every partition heap"
      end
      else
        match reenter [] affected with
        | Ok () ->
            add_ghosts t tuple runs;
            Ok ()
        | Error msg ->
            (* Revert the field and restore entries under the old key. *)
            Tuple.set tuple col old_v;
            (match (old_v, v) with
            | Value.Str _, _ | _, Value.Str _ ->
                let cur = Tuple.resolve tuple in
                let p' = partition_of_exn t cur.Value.pid in
                ignore (Partition.adjust_heap p' ~delta:(-heap_delta))
            | _ -> ());
            List.iter (fun inst -> ignore (idx_insert inst tuple)) affected;
            Error msg
    in
    let result = if affected = [] then apply () else writing t apply in
    (match result with
    | Ok () -> Version_store.on_update t.view (Tuple.resolve tuple)
    | Error _ -> ());
    result
  end

let validate t =
  let exception Bad of string in
  try
    (* Partitions. *)
    List.iter
      (fun p ->
        match Partition.validate p with
        | Ok () -> ()
        | Error msg ->
            raise (Bad (Printf.sprintf "partition %d: %s" (Partition.pid p) msg)))
      t.partitions;
    let stored = List.fold_left (fun acc p -> acc + Partition.count p) 0 t.partitions in
    if stored <> t.count then
      raise (Bad (Printf.sprintf "partition tuples %d <> count %d" stored t.count));
    (* Indices: size and internal invariants; retained instances are
       checked structurally only (they hold no live entries). *)
    List.iter
      (fun (module Inst : INSTANCE) ->
        if Inst.I.size Inst.handle <> t.count then
          raise
            (Bad
               (Printf.sprintf "index %s holds %d entries, relation has %d"
                  Inst.def.idx_name
                  (Inst.I.size Inst.handle)
                  t.count));
        (match Inst.I.validate Inst.handle with
        | Ok () -> ()
        | Error msg ->
            raise (Bad (Printf.sprintf "index %s: %s" Inst.def.idx_name msg)));
        match !Inst.retained with
        | None -> ()
        | Some r -> (
            match Inst.I.validate r with
            | Ok () -> ()
            | Error msg ->
                raise
                  (Bad
                     (Printf.sprintf "retained entries of %s: %s"
                        Inst.def.idx_name msg))))
      t.indices;
    (* Every stored tuple reachable through every index. *)
    iter_storage t (fun tuple ->
        List.iter
          (fun (module Inst : INSTANCE) ->
            let found = ref false in
            Inst.I.iter_matches Inst.handle tuple (fun tu ->
                if Tuple.id tu = Tuple.id tuple then found := true);
            if not !found then
              raise
                (Bad
                   (Printf.sprintf "tuple t%d missing from index %s"
                      (Tuple.id tuple) Inst.def.idx_name)))
          t.indices);
    Ok ()
  with Bad msg -> Error msg
