(* The traced run: the per-layer numbers.  Requests are sent one at a
   time, round-robin over the workload's connections, so each loopback
   round trip can be set against the in-process replay of the same
   request.  Requests go in pairs: one is traced, the other replays with
   the recorder off, for the tracing-overhead comparison.  A seeded coin
   picks which of the two goes first, and the lower rungs of the traced
   one run after both, so neither side always follows the rungs' work. *)

open Mmdb_net
module Counters = Mmdb_util.Counters

(* The §3.1 counts are averaged over this many traced requests from the
   start of the stream, so they repeat exactly for a seed. *)
let counted_requests = 32

type req_record = {
  rid : int;
  req : Gen.request;
  loop_ns : int;  (** loopback round trip *)
  info : Ladder.job_info;
  parse_words : float;
}

(* Per-layer metrics, in the order they are printed: name, unit. *)
let metrics =
  [
    ("Protocol.encode_request_us", "us");
    ("Protocol.decode_request_us", "us");
    ("Protocol.encode_response_us", "us");
    ("Protocol.decode_response_us", "us");
    ("Exec_queue.wait_us", "us");
    ("Exec_queue.wake_us", "us");
    ("Server.overhead_us", "us");
    ("Server.stmt_cache_hit_ratio", "ratio");
    ("Server.rss_growth_kb_per_kop", "kB/kop");
    ("Parser.parse_us", "us");
    ("Parser.alloc_words_per_req", "words");
    ("Optimizer.plan_us", "us");
    ("Optimizer.alloc_words_per_req", "words");
    ("Executor.execute_us", "us");
    ("Executor.alloc_words_per_req", "words");
    ("Executor.execute_us.join_count", "us");
    ("Executor.execute_us.range_avg", "us");
    ("Executor.execute_us.distinct", "us");
    ("Aggregate.group_us", "us");
    ("Aggregate.group_us.join_count", "us");
    ("Aggregate.group_us.range_avg", "us");
    ("Select.run_ns_per_row", "ns");
    ("Join.run_ns_per_row", "ns");
    ("Project.run_ns_per_row", "ns");
    ("Select.rows_examined_per_row", "ratio");
    ("Counters.comparisons_per_req", "count");
    ("Counters.ptr_derefs_per_req", "count");
    ("Counters.hash_calls_per_req", "count");
    ("Counters.data_moves_per_req", "count");
    ("Counters.node_allocs_per_req", "count");
    ("Relation.lookup_us", "us");
    ("Relation.lookup_snapshot_us", "us");
    ("Relation.snapshot_ratio", "ratio");
    ("Index.search_ns", "ns");
    ("Mvcc.versions_walked_per_read", "count");
    ("Version_store.dead_ratio", "ratio");
    ("Mvcc.gc_us", "us");
    ("Mvcc.gc_reclaimed", "count");
    ("Interp.exec_us.update", "us");
    ("Log_device.pending_per_txn", "count");
    ("trace.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

(* 0 marks a layer the workload does not exercise (no such calls). *)
let med_or_zero = function [] -> 0. | l -> Mmdb_util.Stats.percentile (Array.of_list l) 50.
let ratio n d = if d = 0. then 0. else n /. d
let us ns = float_of_int ns /. 1e3
let sum f l = List.fold_left (fun n x -> n + f x) 0 l

let mean f l = Mmdb_util.Stats.mean (Array.of_list (List.map f l))

(* What one traced run collected. *)
type window = {
  records : req_record list;  (** the traced requests, in order *)
  spans : Span.span list;
  untraced_ns : int list;  (** replay time of each untraced request *)
  rung_rows : (string * int) list;  (** operator rung, rows it produced *)
  requests : int;
  final_gc : int;  (** versions the end-of-window GC pass reclaimed *)
  rss_growth_kb : int;  (** server RSS growth over the window *)
  stats : string;  (** the server's STATS JSON at the end *)
  dead_ratio : float;  (** replica view size over live count *)
  pending_per_txn : float;  (** replica log records left per transaction *)
}

type result = { values : (string * float) list; win : window }

(* The lower rungs of a traced request, on the same inputs. *)
let rungs ctx r req =
  Span.record r "rungs" (fun () ->
      match req with
      | Gen.Get k | Gen.Put (k, _) ->
          Ladder.key_rungs ctx r k;
          []
      | Gen.Report _ -> Ladder.operator_rungs ctx r req)

(* One traced run: set up once, send and replay the stream for [seconds]
   (and at least [counted_requests] traced requests). *)
let collect a w ~seed ~seconds ~exe ~log =
  let data = Gen.data seed in
  let answers = Gen.answers data in
  let s = Wire.setup a ~exe ~log w data in
  let pid = s.Wire.srv.Proc.pid in
  let ctx = Ladder.replica w data in
  let nconn = Gen.connections in
  let clients =
    Array.init nconn (fun c ->
        if c = 0 then s.Wire.client else Wire.connect s.Wire.srv.Proc.port)
  in
  let streams = Array.init nconn (fun conn -> Gen.stream w ~seed ~conn) in
  let remote = Array.init nconn (fun _ -> Gen.model data) in
  let local = Array.init nconn (fun _ -> Gen.model data) in
  let all = Span.create ~rid:0 () in
  let records = ref [] and untraced = ref [] and rung_rows = ref [] in
  let rss0 = Proc.rss_kb pid in
  let until = Unix.gettimeofday () +. seconds in
  let coin = Gen.rng seed 99 in
  let i = ref 0 and traced_first = ref true and pending = ref None in
  while Unix.gettimeofday () < until || !i < 2 * counted_requests || !i mod 2 = 1 do
    if !i mod 2 = 0 then traced_first := Random.State.bool coin;
    let rid = !i + 1 and conn = !i mod nconn in
    let req = Gen.next streams.(conn) in
    let sql = Gen.sql req in
    let on_remote = function
      | Some resp -> Wire.check a remote.(conn) answers req resp
      | None -> Gen.forget remote.(conn) req
    in
    let on_local (info : Ladder.job_info) =
      match info.Ladder.resp with
      | Protocol.Error (_, msg) -> Wire.wrong a ("replica: " ^ msg)
      | resp -> Wire.check a local.(conn) answers req resp
    in
    if (!i mod 2 = 0) = !traced_first then begin
      let r = Span.create ~rid () in
      let loop_ns = ref 0 in
      let info, parse_words =
        Span.record r "request" (fun () ->
            let t0 = Span.now () in
            on_remote
              (Span.record r "Client.query" (fun () ->
                   Wire.send a clients.(conn) sql));
            loop_ns := Span.now () - t0;
            Span.record r "replay" (fun () -> Ladder.replay ctx r ~conn req))
      in
      on_local info;
      pending := Some (r, req);
      records := { rid; req; loop_ns = !loop_ns; info; parse_words } :: !records
    end
    else begin
      on_remote (Wire.send a clients.(conn) sql);
      let t0 = Span.now () in
      let info, _ = Ladder.replay ctx (Span.create ~on:false ~rid ()) ~conn req in
      untraced := (Span.now () - t0) :: !untraced;
      on_local info
    end;
    (match !pending with
    | Some (r, req) when !i mod 2 = 1 ->
        rung_rows := rungs ctx r req @ !rung_rows;
        Span.merge ~into:all r;
        pending := None
    | _ -> ());
    incr i
  done;
  (* one more epoch GC pass at the end of the window, so every workload
     reports a pass time *)
  let rels = Mmdb_core.Db.relations ctx.Ladder.db in
  let final_gc = Span.record all "Mvcc.gc" (fun () -> Mmdb_txn.Mvcc.gc rels) in
  let rss_growth_kb = Proc.rss_kb pid - rss0 in
  let stats = match Client.stats s.Wire.client with Ok j -> j | Error _ -> "" in
  (match w with
  | Gen.Point -> Wire.final_scan a s.Wire.client remote
  | Gen.Analytic -> ());
  Array.iteri (fun c cl -> if c > 0 then try Client.close cl with _ -> ()) clients;
  Wire.teardown s;
  let view rel = Mmdb_storage.Version_store.view_size (Mmdb_storage.Relation.view rel) in
  let dead_ratio =
    ratio (float_of_int (sum view rels))
      (float_of_int (sum Mmdb_storage.Relation.count rels))
  in
  let pending_log =
    Mmdb_txn.Log_device.pending_count (Mmdb_txn.Txn.device ctx.Ladder.mgr)
  in
  let pending_per_txn = ratio (float_of_int pending_log) (float_of_int ctx.Ladder.txns) in
  Ladder.close ctx;
  {
    records = List.rev !records;
    spans = all.Span.spans;
    untraced_ns = !untraced;
    rung_rows = !rung_rows;
    requests = !i;
    final_gc;
    rss_growth_kb;
    stats;
    dead_ratio;
    pending_per_txn;
  }

(* The per-layer metrics of one traced run. *)
let reduce win =
  let spans = win.spans and records = win.records in
  let durs name =
    List.filter_map
      (fun (sp : Span.span) -> if sp.Span.name = name then Some (us (Span.dur sp)) else None)
      spans
  in
  let med name = med_or_zero (durs name) in
  let reads = List.filter (fun r -> not (Gen.is_write r.req)) records in
  let by_rid = Hashtbl.create 4096 in
  List.iter
    (fun (sp : Span.span) -> Hashtbl.replace by_rid (sp.Span.rid, sp.Span.name) sp)
    spans;
  (* [name]'s median over the traced reports of template [t] *)
  let med_of t name =
    med_or_zero
      (List.filter_map
         (fun r ->
           match r.req with
           | Gen.Report (t', _) when t' = t ->
               Option.map (fun sp -> us (Span.dur sp)) (Hashtbl.find_opt by_rid (r.rid, name))
           | _ -> None)
         records)
  in
  let counted = List.filteri (fun i _ -> i < counted_requests) records in
  let counts =
    List.fold_left (fun acc r -> Counters.add acc r.info.Ladder.counts) Counters.zero counted
  in
  let per_req f = float_of_int (f counts) /. float_of_int (List.length counted) in
  let per_row name =
    let rows = sum (fun (rung, k) -> if rung = name then k else 0) win.rung_rows in
    let ns =
      sum (fun (sp : Span.span) -> if sp.Span.name = name then Span.dur sp else 0) spans
    in
    ratio (float_of_int ns) (float_of_int rows)
  in
  let gcs = List.filter_map (fun r -> r.info.Ladder.gc) records in
  let lookup = med "Relation.lookup" and lookup_snap = med "Relation.lookup_snapshot" in
  let hits = Option.value ~default:0 (Wire.stat_int win.stats "stmt_cache_hits")
  and misses = Option.value ~default:0 (Wire.stat_int win.stats "stmt_cache_misses") in
  (* Layer spans below "replay" run one after another, so their self
     times sum to the time its direct children cover. *)
  let replay_ids = Hashtbl.create 1024 in
  List.iter
    (fun (sp : Span.span) ->
      if sp.Span.name = "replay" then Hashtbl.replace replay_ids sp.Span.id ())
    spans;
  let layer_ns =
    sum
      (fun (sp : Span.span) ->
        if Hashtbl.mem replay_ids sp.Span.parent then Span.dur sp else 0)
      spans
  in
  let job_us r = us (r.info.Ladder.t_end - r.info.Ladder.t_start) in
  let derefs = sum (fun r -> r.info.Ladder.counts.Counters.ptr_derefs) reads in
  [
    ("Protocol.encode_request_us", med "Protocol.encode_request");
    ("Protocol.decode_request_us", med "Protocol.decode_request");
    ("Protocol.encode_response_us", med "Protocol.encode_response");
    ("Protocol.decode_response_us", med "Protocol.decode_response");
    ("Exec_queue.wait_us", med "Exec_queue.wait");
    ("Exec_queue.wake_us", med "Exec_queue.wake");
    ("Server.overhead_us", med_or_zero (List.map (fun r -> us r.loop_ns -. job_us r) records));
    ("Server.stmt_cache_hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
    ( "Server.rss_growth_kb_per_kop",
      ratio (float_of_int win.rss_growth_kb) (float_of_int win.requests /. 1000.) );
    ("Parser.parse_us", med "Parser.parse");
    ("Parser.alloc_words_per_req", mean (fun r -> r.parse_words) records);
    ("Optimizer.plan_us", med "Optimizer.plan");
    ("Optimizer.alloc_words_per_req", mean (fun r -> r.info.Ladder.plan_words) reads);
    ("Executor.execute_us", med "Executor.execute");
    ("Executor.alloc_words_per_req", mean (fun r -> r.info.Ladder.exec_words) reads);
    ("Executor.execute_us.join_count", med_of Gen.Join_count "Executor.execute");
    ("Executor.execute_us.range_avg", med_of Gen.Range_avg "Executor.execute");
    ("Executor.execute_us.distinct", med_of Gen.Distinct "Executor.execute");
    ("Aggregate.group_us", med "Aggregate.group");
    ("Aggregate.group_us.join_count", med_of Gen.Join_count "Aggregate.group");
    ("Aggregate.group_us.range_avg", med_of Gen.Range_avg "Aggregate.group");
    ("Select.run_ns_per_row", per_row "Select.run");
    ("Join.run_ns_per_row", per_row "Join.run");
    ("Project.run_ns_per_row", per_row "Project.run");
    ( "Select.rows_examined_per_row",
      ratio (float_of_int derefs)
        (float_of_int (sum (fun r -> r.info.Ladder.out_rows) reads)) );
    ("Counters.comparisons_per_req", per_req (fun c -> c.Counters.comparisons));
    ("Counters.ptr_derefs_per_req", per_req (fun c -> c.Counters.ptr_derefs));
    ("Counters.hash_calls_per_req", per_req (fun c -> c.Counters.hash_calls));
    ("Counters.data_moves_per_req", per_req (fun c -> c.Counters.data_moves));
    ("Counters.node_allocs_per_req", per_req (fun c -> c.Counters.node_allocs));
    ("Relation.lookup_us", lookup);
    ("Relation.lookup_snapshot_us", lookup_snap);
    ("Relation.snapshot_ratio", ratio lookup_snap lookup);
    ("Index.search_ns", 1e3 *. med "Index.search");
    ("Mvcc.versions_walked_per_read", mean (fun r -> float_of_int r.info.Ladder.walked) reads);
    ("Version_store.dead_ratio", win.dead_ratio);
    ("Mvcc.gc_us", med "Mvcc.gc");
    ( "Mvcc.gc_reclaimed",
      float_of_int (win.final_gc + sum snd gcs) /. float_of_int (1 + List.length gcs) );
    ("Interp.exec_us.update", med "Interp.exec.update");
    ("Log_device.pending_per_txn", win.pending_per_txn);
    ( "trace.unattributed_frac",
      1. -. ratio (float_of_int layer_ns) (float_of_int (sum (fun r -> r.loop_ns) records)) );
    ( "trace.overhead_frac",
      ratio (med "replay") (med_or_zero (List.map us win.untraced_ns)) -. 1. );
  ]

let run a w ~seed ~seconds ~exe ~log =
  let win = collect a w ~seed ~seconds ~exe ~log in
  { values = reduce win; win }
