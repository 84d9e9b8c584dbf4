(* MVCC snapshot-isolation semantics.

   The storage-level tests drive Version_store through Relation with a
   second domain standing in for the concurrent writer (a fresh domain
   has fresh DLS: no snapshot, no write scope — exactly the server's
   dispatcher/reader split).  The properties checked are the ones the
   subsystem exists for: repeatable reads within a statement, no dirty
   reads of an in-flight writer, aborted work leaving no visible
   versions, and a GC that never reclaims a version some live snapshot
   can still see (randomized; seed count via MMDB_CHAOS_SEEDS).

   The classification tests pin the server-facing contract: EXPLAIN /
   EXPLAIN ANALYZE and EXEC_PREPARED of a read-only statement must take
   the Read path, or they would barrier behind the writer for nothing. *)

open Mmdb_storage
module Rng = Mmdb_util.Rng
module Ast = Mmdb_lang.Ast
module Parser = Mmdb_lang.Parser
module Db = Mmdb_core.Db
module Mvcc = Mmdb_txn.Mvcc

let value = Alcotest.testable Value.pp Value.equal

let n_seeds =
  match Sys.getenv_opt "MMDB_CHAOS_SEEDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 5)
  | None -> 5

(* The suite must be meaningful under MMDB_MVCC=0 too, so each test
   forces versioning on and restores the ambient setting after. *)
let with_mvcc f =
  let was = Version_store.enabled () in
  Version_store.set_enabled true;
  Fun.protect ~finally:(fun () -> Version_store.set_enabled was) f

let kv_schema () =
  Schema.make ~name:"KV"
    [ Schema.col ~ty:Schema.T_int "K"; Schema.col ~ty:Schema.T_int "V" ]

let mk_kv () =
  Relation.create ~schema:(kv_schema ())
    ~primary:
      {
        Relation.idx_name = "kv_pk";
        columns = [| 0 |];
        unique = true;
        structure = Relation.T_tree;
      }
    ()

let ins r k v =
  match Relation.insert r [| Value.Int k; Value.Int v |] with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* All rows visible from the calling context, as a sorted (k, v) list —
   under a snapshot this is the diverted, visibility-filtered scan. *)
let rows r =
  let acc = ref [] in
  Relation.iter r (fun t ->
      acc := (Tuple.get t 0, Tuple.get t 1) :: !acc);
  List.sort compare !acc

(* Run [f] on a fresh domain (fresh DLS: no inherited snapshot or write
   scope) and join it. *)
let on_writer_domain f = Domain.join (Domain.spawn f)

(* --- repeatable read ----------------------------------------------------- *)

let test_repeatable_read () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  let t = ins r 1 10 in
  Version_store.with_snapshot (fun snap ->
      Alcotest.(check bool) "snapshot acquired" true (snap >= 0);
      Alcotest.check value "before write" (Value.Int 10) (Tuple.get t 1);
      on_writer_domain (fun () ->
          Version_store.with_write (fun () ->
              match Relation.update_field r t 1 (Value.Int 20) with
              | Ok () -> ()
              | Error e -> Alcotest.fail e));
      Alcotest.check value "unchanged within the statement" (Value.Int 10)
        (Tuple.get t 1);
      (match Relation.lookup ~index:"kv_pk" r [| Value.Int 1 |] with
      | [ tu ] ->
          Alcotest.check value "lookup sees the snapshot too" (Value.Int 10)
            (Tuple.get tu 1)
      | l -> Alcotest.failf "lookup returned %d tuples" (List.length l)));
  Alcotest.check value "new value after the snapshot" (Value.Int 20)
    (Tuple.get t 1)

(* --- no dirty reads ------------------------------------------------------ *)

let test_no_dirty_reads () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  ignore (ins r 1 10);
  (* Hold the write scope open on this domain; a reader on another
     domain must not see the unpublished insert or update. *)
  Version_store.with_write (fun () ->
      ignore (ins r 2 20);
      let seen =
        on_writer_domain (fun () -> Version_store.with_snapshot (fun _ -> rows r))
      in
      Alcotest.(check (list (pair value value)))
        "in-flight insert invisible"
        [ (Value.Int 1, Value.Int 10) ]
        seen);
  (* Published at scope exit: a fresh snapshot now sees both rows. *)
  let seen =
    on_writer_domain (fun () -> Version_store.with_snapshot (fun _ -> rows r))
  in
  Alcotest.(check int) "published after scope exit" 2 (List.length seen)

(* --- abort leaves no visible versions ------------------------------------ *)

let test_abort_invisible () =
  with_mvcc @@ fun () ->
  let db = Db.create () in
  let sess = Mmdb_lang.Interp.session db in
  (match
     Mmdb_lang.Interp.exec_string sess
       "CREATE TABLE T (K int PRIMARY KEY, V int); INSERT INTO T VALUES (1, 10);"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match
     Mmdb_lang.Interp.exec_string sess
       "BEGIN; INSERT INTO T VALUES (2, 20); ROLLBACK;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = Db.find_exn db "T" in
  Alcotest.(check int) "live count back to 1" 1 (Relation.count r);
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check (list (pair value value)))
        "no snapshot sees the aborted insert"
        [ (Value.Int 1, Value.Int 10) ]
        (rows r);
      Alcotest.(check int) "snapshot count agrees" 1 (Relation.count r))

(* --- GC vs live snapshots (randomized) ----------------------------------- *)

(* A writer mutates and GCs while the main domain holds one snapshot:
   the rows visible under that snapshot must be identical before and
   after, whatever the writer and the GC did.  Then, with the snapshot
   released, GC must actually reclaim and converge to the live state. *)
let gc_round rng r ~live ~next_key =
  let pick_live () =
    let keys = List.of_seq (Hashtbl.to_seq_keys live) in
    match keys with
    | [] -> None
    | _ -> Some (List.nth keys (Rng.int rng (List.length keys)))
  in
  let tuple_of k =
    match Relation.lookup ~index:"kv_pk" r [| Value.Int k |] with
    | [ t ] -> t
    | l -> Alcotest.failf "key %d: %d tuples" k (List.length l)
  in
  for _ = 1 to 100 do
    match Rng.int rng 10 with
    | 0 | 1 -> (
        (* insert a fresh key *)
        let k = !next_key in
        incr next_key;
        match Relation.insert r [| Value.Int k; Value.Int (k * 7) |] with
        | Ok _ -> Hashtbl.replace live k (k * 7)
        | Error e -> Alcotest.fail e)
    | 2 | 3 -> (
        (* delete a live key *)
        match pick_live () with
        | None -> ()
        | Some k ->
            ignore (Relation.delete_tuple r (tuple_of k));
            Hashtbl.remove live k)
    | n -> (
        (* update a live key, deferred-scope half the time *)
        match pick_live () with
        | None -> ()
        | Some k ->
            let v = Rng.int rng 1_000_000 in
            let apply () =
              match Relation.update_field r (tuple_of k) 1 (Value.Int v) with
              | Ok () -> Hashtbl.replace live k v
              | Error e -> Alcotest.fail e
            in
            if n land 1 = 0 then Version_store.with_write apply else apply ())
  done;
  ignore (Mvcc.gc [ r ])

let test_gc_respects_snapshots () =
  with_mvcc @@ fun () ->
  for seed = 1 to n_seeds do
    let r = mk_kv () in
    let live = Hashtbl.create 64 in
    for k = 0 to 63 do
      ignore (ins r k (k * 7));
      Hashtbl.replace live k (k * 7)
    done;
    let next_key = ref 1000 in
    for round = 1 to 3 do
      Version_store.with_snapshot (fun _ ->
          let expected = rows r in
          on_writer_domain (fun () ->
              let rng = Rng.create ~seed:((seed * 1000) + round) () in
              gc_round rng r ~live ~next_key);
          let after = rows r in
          if after <> expected then
            Alcotest.failf
              "seed %d round %d: snapshot drifted (%d rows -> %d rows)" seed
              round (List.length expected) (List.length after))
    done;
    (* No snapshot held: GC may now prune everything behind the clock,
       and a fresh snapshot must agree with the live state. *)
    ignore (Mvcc.gc [ r ]);
    let live_rows = rows r in
    let snap_rows = Version_store.with_snapshot (fun _ -> rows r) in
    if snap_rows <> live_rows then
      Alcotest.failf "seed %d: post-GC snapshot disagrees with live state" seed;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: model row count" seed)
      (Hashtbl.length live) (List.length live_rows)
  done;
  let st = Version_store.stats () in
  Alcotest.(check bool) "GC reclaimed something across the run" true
    (st.Version_store.st_versions_reclaimed > 0)

(* --- snapshot reads through the indices ---------------------------------- *)

(* Every structure serves snapshot reads through its live and retained
   entries, so each case below runs for all eight.  The reference is the
   same read served by the membership-view scan the index path falls
   back to ({!Relation.with_scan_fallback}). *)

let structures =
  Relation.
    [
      T_tree;
      Avl_tree;
      B_tree;
      Array_index;
      Chained_hash;
      Extendible_hash;
      Linear_hash;
      Mod_linear_hash;
    ]

let structure_name s =
  let (module I : Mmdb_index.Index_intf.S) = Relation.structure_module s in
  I.name

(* KV with a unique primary index on K and a non-unique index on V, both
   of structure [s]. *)
let mk_kv_on s =
  let r =
    Relation.create ~schema:(kv_schema ())
      ~primary:
        { Relation.idx_name = "kv_pk"; columns = [| 0 |]; unique = true; structure = s }
      ()
  in
  (match Relation.create_index ~structure:s r ~idx_name:"kv_v" ~columns:[| 1 |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  r

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

let write f = on_writer_domain (fun () -> Version_store.with_write f)

let current r k =
  match Relation.lookup ~index:"kv_pk" r [| Value.Int k |] with
  | [ t ] -> t
  | l -> Alcotest.failf "key %d: %d live tuples" k (List.length l)

(* (id, K, V) as seen from the calling context. *)
let seen l = List.map (fun t -> (Tuple.id t, Tuple.get t 0, Tuple.get t 1)) l

let lookup_rows r ~index k = seen (Relation.lookup ~index r [| Value.Int k |])

let via r ~index =
  let acc = ref [] in
  Relation.iter_via ~index r (fun t -> acc := t :: !acc);
  seen (List.rev !acc)

let range r ~index lo hi =
  let acc = ref [] in
  Relation.lookup_range ~index r ~lo:[| Value.Int lo |] ~hi:[| Value.Int hi |]
    (fun t -> acc := t :: !acc);
  seen (List.rev !acc)

(* Every read the index path serves, paired with the fallback's answer:
   identical sequences on ordered structures, equal multisets on hash
   ones.  Returns the first disagreement. *)
let disagreement r ~ordered ~keys =
  let reads =
    List.concat_map
      (fun k ->
        [
          (Printf.sprintf "pk=%d" k, fun () -> lookup_rows r ~index:"kv_pk" k);
          (Printf.sprintf "v=%d" k, fun () -> lookup_rows r ~index:"kv_v" k);
        ]
        @
        if ordered then
          [
            (Printf.sprintf "pk in [%d,%d]" k (k + 5), fun () -> range r ~index:"kv_pk" k (k + 5));
            (Printf.sprintf "v in [%d,%d]" k (k + 2), fun () -> range r ~index:"kv_v" k (k + 2));
          ]
        else [])
      keys
    @ [ ("scan kv_pk", fun () -> via r ~index:"kv_pk"); ("scan kv_v", fun () -> via r ~index:"kv_v") ]
  in
  List.find_map
    (fun (what, read) ->
      let got = read () and want = Relation.with_scan_fallback read in
      let got, want = if ordered then (got, want) else (List.sort compare got, List.sort compare want) in
      if got = want then None
      else Some (Printf.sprintf "%s: index read %d rows, fallback %d" what (List.length got) (List.length want)))
    reads

let test_key_update_under_snapshot s () =
  with_mvcc @@ fun () ->
  let r = mk_kv_on s in
  for k = 0 to 49 do ignore (ins r k (k * 10)) done;
  Version_store.with_snapshot (fun _ ->
      write (fun () ->
          ok_or_fail (Relation.update_field r (current r 7) 1 (Value.Int 999));
          ok_or_fail (Relation.update_field r (current r 8) 0 (Value.Int 1008)));
      (match Relation.lookup ~index:"kv_v" r [| Value.Int 70 |] with
      | [ t ] ->
          Alcotest.check value "old V key finds the row, old K" (Value.Int 7) (Tuple.get t 0);
          Alcotest.check value "with its old V" (Value.Int 70) (Tuple.get t 1)
      | l -> Alcotest.failf "old V key: %d rows" (List.length l));
      Alcotest.(check int) "new V key invisible" 0
        (List.length (Relation.lookup ~index:"kv_v" r [| Value.Int 999 |]));
      (match Relation.lookup ~index:"kv_pk" r [| Value.Int 8 |] with
      | [ t ] -> Alcotest.check value "old K finds the row" (Value.Int 80) (Tuple.get t 1)
      | l -> Alcotest.failf "old K: %d rows" (List.length l));
      Alcotest.(check int) "new K invisible" 0
        (List.length (Relation.lookup ~index:"kv_pk" r [| Value.Int 1008 |]));
      Alcotest.(check int) "scan still sees 50 rows" 50 (List.length (via r ~index:"kv_v"));
      Option.iter Alcotest.fail
        (disagreement r ~ordered:(Relation.structure_is_ordered s) ~keys:[ 0; 7; 8; 70; 80 ]));
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check int) "a fresh snapshot finds the new V" 1
        (List.length (Relation.lookup ~index:"kv_v" r [| Value.Int 999 |]));
      Alcotest.(check int) "and not the old one" 0
        (List.length (Relation.lookup ~index:"kv_v" r [| Value.Int 70 |]));
      Alcotest.(check int) "a fresh snapshot finds the new K" 1
        (List.length (Relation.lookup ~index:"kv_pk" r [| Value.Int 1008 |])));
  ok_or_fail (Relation.validate r)

let test_delete_reinsert_unique s () =
  with_mvcc @@ fun () ->
  let r = mk_kv_on s in
  for k = 0 to 19 do ignore (ins r k (k * 10)) done;
  Version_store.with_snapshot (fun _ ->
      write (fun () ->
          Alcotest.(check bool) "delete" true (Relation.delete_tuple r (current r 5));
          match Relation.insert r [| Value.Int 5; Value.Int 555 |] with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "re-insert of the deleted key refused: %s" e);
      (match Relation.lookup ~index:"kv_pk" r [| Value.Int 5 |] with
      | [ t ] -> Alcotest.check value "the held snapshot sees the old row" (Value.Int 50) (Tuple.get t 1)
      | l -> Alcotest.failf "held snapshot: %d rows for K=5" (List.length l));
      Option.iter Alcotest.fail
        (disagreement r ~ordered:(Relation.structure_is_ordered s) ~keys:[ 5; 50; 555 ]));
  Version_store.with_snapshot (fun _ ->
      match Relation.lookup ~index:"kv_pk" r [| Value.Int 5 |] with
      | [ t ] -> Alcotest.check value "a fresh snapshot sees the new row" (Value.Int 555) (Tuple.get t 1)
      | l -> Alcotest.failf "fresh snapshot: %d rows for K=5" (List.length l));
  (* the unique index still refuses a live duplicate *)
  (match Relation.insert r [| Value.Int 5; Value.Int 1 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a live duplicate got past the unique index");
  ok_or_fail (Relation.validate r)

(* A→B→A→B on one row's V, with a snapshot held at every step: each
   snapshot sees the row exactly once, under the value it had then. *)
let test_key_cycle s () =
  with_mvcc @@ fun () ->
  let r = mk_kv_on s in
  for k = 0 to 29 do ignore (ins r k (k mod 3)) done;
  let id = Tuple.id (current r 4) in
  let set v = write (fun () -> ok_or_fail (Relation.update_field r (current r 4) 1 (Value.Int v))) in
  let check_at label want =
    let occurrences =
      List.length (List.filter (fun (i, _, _) -> i = id) (via r ~index:"kv_v"))
    in
    Alcotest.(check int) (label ^ ": row appears once in the scan") 1 occurrences;
    List.iter
      (fun v ->
        let hits = List.filter (fun (i, _, _) -> i = id) (lookup_rows r ~index:"kv_v" v) in
        Alcotest.(check int)
          (Printf.sprintf "%s: lookup V=%d" label v)
          (if v = want then 1 else 0)
          (List.length hits))
      [ 1; 100; 200 ];
    Option.iter Alcotest.fail
      (disagreement r ~ordered:(Relation.structure_is_ordered s) ~keys:[ 1; 100; 200 ])
  in
  Version_store.with_snapshot (fun _ ->
      set 100;
      Version_store.with_snapshot (fun _ ->
          set 1;
          Version_store.with_snapshot (fun _ ->
              set 100;
              Version_store.with_snapshot (fun _ ->
                  set 200;
                  check_at "after A->B->A->B->C" 100);
              check_at "after A->B->A" 1);
          check_at "after A->B" 100);
      check_at "before the cycle" 1);
  ok_or_fail (Relation.validate r)

(* A reader domain takes snapshot after snapshot while the writer inserts,
   deletes, moves keys and collects: every snapshot read through the
   indices must equal the fallback scan at the same snapshot. *)
let test_reader_races_writer s () =
  with_mvcc @@ fun () ->
  let r = mk_kv_on s in
  let ordered = Relation.structure_is_ordered s in
  for k = 0 to 299 do ignore (ins r k (k mod 37)) done;
  let stop = Atomic.make false and running = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| 7 |] in
        let checks = ref 0 and failure = ref None in
        while (not (Atomic.get stop)) && !failure = None do
          Version_store.with_snapshot (fun _ ->
              let k = Random.State.int rng 600 in
              match disagreement r ~ordered ~keys:[ k; k mod 37 ] with
              | None -> incr checks
              | Some d -> failure := Some d);
          Atomic.set running true
        done;
        (!checks, !failure))
  in
  (* the writer starts once the reader is under way *)
  while not (Atomic.get running) do Domain.cpu_relax () done;
  let rng = Rng.create ~seed:11 () in
  let live = Hashtbl.create 512 in
  for k = 0 to 299 do Hashtbl.replace live k () done;
  let next = ref 300 in
  let pick () =
    let ks = List.of_seq (Hashtbl.to_seq_keys live) in
    List.nth ks (Rng.int rng (List.length ks))
  in
  for i = 1 to 3000 do
    Version_store.with_write (fun () ->
        match Rng.int rng 4 with
        | 0 ->
            let k = !next in
            incr next;
            ignore (ins r k (k mod 37));
            Hashtbl.replace live k ()
        | 1 ->
            let k = pick () in
            ignore (Relation.delete_tuple r (current r k));
            Hashtbl.remove live k
        | 2 -> ok_or_fail (Relation.update_field r (current r (pick ())) 1 (Value.Int (Rng.int rng 37)))
        | _ ->
            let k = pick () and k' = !next in
            incr next;
            ok_or_fail (Relation.update_field r (current r k) 0 (Value.Int k'));
            Hashtbl.remove live k;
            Hashtbl.replace live k' ());
    if i mod 200 = 0 then ignore (Mvcc.gc [ r ])
  done;
  Atomic.set stop true;
  let checks, failure = Domain.join reader in
  Option.iter (Alcotest.failf "%s: %s" (structure_name s)) failure;
  Alcotest.(check bool) "the reader ran" true (checks > 0);
  ok_or_fail (Relation.validate r)

let test_gc_drops_retained s () =
  with_mvcc @@ fun () ->
  let r = mk_kv_on s in
  for k = 0 to 49 do ignore (ins r k k) done;
  Alcotest.(check int) "a loaded table retains nothing" 0 (Relation.retained_count r);
  Version_store.with_snapshot (fun _ ->
      write (fun () ->
          for k = 0 to 9 do
            ok_or_fail (Relation.update_field r (current r k) 1 (Value.Int (k + 100)))
          done;
          for k = 10 to 14 do ignore (Relation.delete_tuple r (current r k)) done;
          for k = 15 to 17 do ok_or_fail (Relation.update_field r (current r k) 0 (Value.Int (k + 100))) done);
      let held = Relation.retained_count r in
      Alcotest.(check bool) "changes under a snapshot retain entries" true (held > 0);
      ignore (Mvcc.gc [ r ]);
      Alcotest.(check int) "GC keeps what the held snapshot needs" held (Relation.retained_count r);
      Alcotest.(check int) "and the snapshot still sees 50 rows" 50 (List.length (via r ~index:"kv_v")));
  ignore (Mvcc.gc [ r ]);
  Alcotest.(check int) "GC past the horizon empties the retained entries" 0 (Relation.retained_count r);
  ok_or_fail (Relation.validate r);
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check int) "live rows after GC" 45 (List.length (via r ~index:"kv_pk")))

(* An index created after a snapshot began must still serve it: the new
   index derives its retained entries from the version chains. *)
let test_index_created_under_snapshot s () =
  with_mvcc @@ fun () ->
  let r =
    Relation.create ~schema:(kv_schema ())
      ~primary:
        { Relation.idx_name = "kv_pk"; columns = [| 0 |]; unique = true; structure = s }
      ()
  in
  for k = 0 to 19 do ignore (ins r k (k * 10)) done;
  Version_store.with_snapshot (fun _ ->
      write (fun () ->
          ok_or_fail (Relation.update_field r (current r 3) 1 (Value.Int 999));
          ignore (Relation.delete_tuple r (current r 4));
          ok_or_fail (Relation.create_index ~structure:s r ~idx_name:"kv_v" ~columns:[| 1 |]));
      let v_rows v = List.map (fun (_, k, _) -> k) (lookup_rows r ~index:"kv_v" v) in
      Alcotest.(check (list value)) "the re-keyed row under its old key" [ Value.Int 3 ] (v_rows 30);
      Alcotest.(check (list value)) "the deleted row" [ Value.Int 4 ] (v_rows 40);
      Alcotest.(check (list value)) "not under its new key" [] (v_rows 999);
      Alcotest.(check int) "a full scan of the new index" 20 (List.length (via r ~index:"kv_v")));
  ok_or_fail (Relation.validate r)

(* A transaction that re-keys a row and then fails its commit: the
   rollback must take back the retained entry the re-key left, or every
   snapshot would find the row twice under its old key. *)
let test_failed_commit_drops_retained () =
  with_mvcc @@ fun () ->
  let db = Db.create () in
  let sess = Mmdb_lang.Interp.session db in
  (match
     Mmdb_lang.Interp.exec_string sess
       "CREATE TABLE T (K int PRIMARY KEY, V int); CREATE INDEX t_v ON T (V) USING ttree; \
        INSERT INTO T VALUES (1, 10); INSERT INTO T VALUES (2, 20);"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = Db.find_exn db "T" in
  let keys_at v =
    List.map (fun (_, k, _) -> k) (lookup_rows r ~index:"t_v" v)
  in
  Version_store.with_snapshot (fun _ ->
      on_writer_domain (fun () ->
          let w = Mmdb_lang.Interp.session db in
          match
            Mmdb_lang.Interp.exec_string w
              "BEGIN; UPDATE T SET V = 15 WHERE K = 1; INSERT INTO T VALUES (2, 0); COMMIT;"
          with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "the commit should fail on the duplicate key");
      Alcotest.(check (list value)) "held snapshot: row once under V=10" [ Value.Int 1 ] (keys_at 10);
      Alcotest.(check (list value)) "held snapshot: nothing under V=15" [] (keys_at 15));
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check (list value)) "fresh snapshot: row once under V=10" [ Value.Int 1 ] (keys_at 10));
  ignore (Mvcc.gc [ r ]);
  Alcotest.(check int) "nothing left retained" 0 (Relation.retained_count r);
  ok_or_fail (Relation.validate r)

(* Random operations — immediate, or in groups sharing one write scope —
   with snapshots acquired along the way and held to the end; then at
   every held snapshot, each index read equals the fallback read. *)
type op =
  | Ins of int * int
  | Del of int
  | Set_v of int * int
  | Set_k of int * int
  | Snap
  | Gc

let pp_op = function
  | Ins (k, v) -> Printf.sprintf "ins(%d,%d)" k v
  | Del k -> Printf.sprintf "del %d" k
  | Set_v (k, v) -> Printf.sprintf "v[%d]:=%d" k v
  | Set_k (k, k') -> Printf.sprintf "k[%d]:=%d" k k'
  | Snap -> "snap"
  | Gc -> "gc"

let gen_ops =
  let open QCheck.Gen in
  let key = int_range 0 15 and v = int_range 0 5 in
  let op =
    frequency
      [
        (3, map2 (fun k v -> Ins (k, v)) key v);
        (2, map (fun k -> Del k) key);
        (3, map2 (fun k v -> Set_v (k, v)) key v);
        (2, map2 (fun k k' -> Set_k (k, k')) key key);
        (2, return Snap);
        (1, return Gc);
      ]
  in
  (* a scoped group of several operations publishes as one write *)
  list_size (int_range 1 40) (pair bool (list_size (int_range 1 3) op))

let index_read_property s =
  QCheck.Test.make ~count:60
    ~name:(structure_name s ^ ": index read = fallback read at every held snapshot")
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (scoped, group) ->
                let ops = String.concat ", " (List.map pp_op group) in
                if scoped then "w[" ^ ops ^ "]" else ops)
              ops))
       gen_ops)
    (fun ops ->
      with_mvcc @@ fun () ->
      let r = mk_kv_on s in
      for k = 0 to 9 do ignore (ins r k (k mod 4)) done;
      let held = ref [] in
      let live_tuple k =
        match Relation.lookup ~index:"kv_pk" r [| Value.Int k |] with t :: _ -> Some t | [] -> None
      in
      let apply = function
        | Ins (k, v) -> ignore (Relation.insert r [| Value.Int k; Value.Int v |])
        | Del k -> Option.iter (fun t -> ignore (Relation.delete_tuple r t)) (live_tuple k)
        | Set_v (k, v) -> Option.iter (fun t -> ignore (Relation.update_field r t 1 (Value.Int v))) (live_tuple k)
        | Set_k (k, k') -> Option.iter (fun t -> ignore (Relation.update_field r t 0 (Value.Int k'))) (live_tuple k)
        | Snap -> held := Version_store.acquire_slot () :: !held
        | Gc -> ignore (Mvcc.gc [ r ])
      in
      Fun.protect
        ~finally:(fun () -> List.iter (fun (slot, _) -> Version_store.release_slot slot) !held)
        (fun () ->
          List.iter
            (fun (scoped, group) ->
              let run () = List.iter apply group in
              if scoped then Version_store.with_write run else run ())
            ops;
          (match Relation.validate r with Ok () -> () | Error e -> QCheck.Test.fail_reportf "validate: %s" e);
          let snapshots = Version_store.now () :: List.map snd !held in
          List.for_all
            (fun snap ->
              match
                Version_store.with_installed_snapshot snap (fun () ->
                    disagreement r ~ordered:(Relation.structure_is_ordered s) ~keys:(List.init 16 Fun.id))
              with
              | None -> true
              | Some d -> QCheck.Test.fail_reportf "at snapshot %d: %s" snap d)
            snapshots))

(* Tree Join and Tree Merge read through the snapshot-safe index reads,
   so the planner keeps them under a snapshot: EXPLAIN ANALYZE names them
   and they return the snapshot's join even after a concurrent writer
   moved and deleted join keys. *)
let test_tree_joins_under_snapshot () =
  with_mvcc @@ fun () ->
  let was_cost = Mmdb_core.Optimizer.cost_based () in
  Mmdb_core.Optimizer.set_cost_based false;
  Fun.protect ~finally:(fun () -> Mmdb_core.Optimizer.set_cost_based was_cost) @@ fun () ->
  let db = Db.create () in
  let sess = Mmdb_lang.Interp.session db in
  let exec sess sql =
    match Mmdb_lang.Interp.exec_string sess sql with Ok r -> r | Error e -> Alcotest.fail e
  in
  let rows sess sql =
    match exec sess sql with
    | [ Mmdb_lang.Interp.Rows tl ] ->
        List.sort compare (List.map Array.to_list (Temp_list.materialize tl))
    | _ -> Alcotest.failf "no rows for %s" sql
  in
  ignore
    (exec sess
       "CREATE TABLE A (ID int PRIMARY KEY, X int); CREATE TABLE B (ID int PRIMARY KEY, Y int); \
        CREATE TABLE C (ID int PRIMARY KEY, Z int); CREATE INDEX a_x ON A (X) USING ttree; \
        CREATE INDEX b_y ON B (Y) USING ttree;");
  for i = 1 to 100 do
    ignore (exec sess (Printf.sprintf "INSERT INTO A VALUES (%d, %d);" i (i mod 20)));
    ignore (exec sess (Printf.sprintf "INSERT INTO B VALUES (%d, %d);" i (i mod 25)))
  done;
  for i = 1 to 20 do
    ignore (exec sess (Printf.sprintf "INSERT INTO C VALUES (%d, %d);" i (i mod 7)))
  done;
  let merge_q = "SELECT A.ID, B.ID FROM A JOIN B ON X = Y;" in
  let join_q = "SELECT C.ID, B.ID FROM C JOIN B ON Z = Y;" in
  let method_of sql =
    match exec sess ("EXPLAIN ANALYZE " ^ sql) with
    | [ Mmdb_lang.Interp.Table t ] -> (
        match
          List.find_opt
            (fun row -> match row.(0) with Value.Str s -> String.trim s = "join" | _ -> false)
            t.Mmdb_core.Aggregate.rows
        with
        | Some row -> ( match row.(9) with Value.Str d -> d | v -> Value.to_string v)
        | None -> Alcotest.fail "no join row in EXPLAIN ANALYZE")
    | _ -> Alcotest.fail "EXPLAIN ANALYZE gave no table"
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let merge_before = rows sess merge_q and join_before = rows sess join_q in
  Version_store.with_snapshot (fun _ ->
      on_writer_domain (fun () ->
          let w = Mmdb_lang.Interp.session db in
          ignore (exec w "UPDATE B SET Y = 3 WHERE Y = 4;");
          ignore (exec w "DELETE FROM A WHERE X = 5;");
          ignore (exec w "UPDATE A SET X = 6 WHERE X = 7;"));
      let m = method_of merge_q and j = method_of join_q in
      Alcotest.(check bool) ("merge plan under a snapshot: " ^ m) true (contains m "Tree Merge");
      Alcotest.(check bool) ("join plan under a snapshot: " ^ j) true (contains j "Tree Join");
      Alcotest.(check bool) "tree merge returns the snapshot's join" true (rows sess merge_q = merge_before);
      Alcotest.(check bool) "tree join returns the snapshot's join" true (rows sess join_q = join_before));
  Alcotest.(check bool) "the writer's changes show afterwards" true (rows sess merge_q <> merge_before)

(* --- read-only classification edges -------------------------------------- *)

let parse_one sql =
  match Parser.parse sql with
  | Ok [ s ] -> s
  | Ok l -> Alcotest.failf "%S: %d statements" sql (List.length l)
  | Error e -> Alcotest.fail e

let test_read_only_edges () =
  let ro sql = Ast.is_read_only (parse_one sql) in
  Alcotest.(check bool) "SELECT" true (ro "SELECT K FROM T;");
  Alcotest.(check bool) "EXPLAIN" true (ro "EXPLAIN SELECT K FROM T;");
  Alcotest.(check bool) "EXPLAIN ANALYZE" true
    (ro "EXPLAIN ANALYZE SELECT K FROM T;");
  Alcotest.(check bool) "UPDATE is not" false
    (ro "UPDATE T SET V = 1 WHERE K = 1;");
  Alcotest.(check bool) "BEGIN is not" false (ro "BEGIN;");
  (* a read-only prepared statement stays read-only once bound *)
  let stmt = parse_one "SELECT V FROM T WHERE K = ?;" in
  Alcotest.(check int) "one parameter" 1 (Ast.param_count stmt);
  match Ast.substitute_params stmt [ Ast.L_int 42 ] with
  | Ok bound ->
      Alcotest.(check bool) "bound SELECT classifies Read" true
        (Ast.is_read_only bound)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "mmdb_mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "repeatable read within a statement" `Quick
            test_repeatable_read;
          Alcotest.test_case "no dirty reads of an in-flight writer" `Quick
            test_no_dirty_reads;
          Alcotest.test_case "abort leaves no visible versions" `Quick
            test_abort_invisible;
          Alcotest.test_case "GC never reclaims what a snapshot sees" `Quick
            test_gc_respects_snapshots;
        ] );
      ( "index reads",
        List.concat_map
          (fun s ->
            let name what = Printf.sprintf "%s: %s" (structure_name s) what in
            [
              Alcotest.test_case (name "key-column update under a held snapshot") `Quick
                (test_key_update_under_snapshot s);
              Alcotest.test_case (name "delete and re-insert of a unique key") `Quick
                (test_delete_reinsert_unique s);
              Alcotest.test_case (name "A->B->A key cycle") `Quick (test_key_cycle s);
              Alcotest.test_case (name "reader races a rebalancing writer") `Quick
                (test_reader_races_writer s);
              Alcotest.test_case (name "GC drops retained entries") `Quick
                (test_gc_drops_retained s);
              Alcotest.test_case (name "index created under a held snapshot") `Quick
                (test_index_created_under_snapshot s);
              QCheck_alcotest.to_alcotest (index_read_property s);
            ])
          structures
        @ [
            Alcotest.test_case "a failed commit takes back its retained entries" `Quick
              test_failed_commit_drops_retained;
            Alcotest.test_case "tree join and tree merge under a snapshot" `Quick
              test_tree_joins_under_snapshot;
          ] );
      ( "classification",
        [
          Alcotest.test_case "read-only edges" `Quick test_read_only_edges;
        ] );
    ]
