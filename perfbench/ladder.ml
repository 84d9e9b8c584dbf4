(* The traced run.  Every request of the generated stream goes once over
   loopback to the server process, and is then replayed in process on a
   replica database through the public function of each layer, in the
   order the server calls them:

     Protocol.encode_request -> Protocol.decode_request -> Parser.parse
     -> Exec_queue (wait) -> [job: Mvcc.with_snapshot -> Optimizer.plan ->
        Executor.execute -> Aggregate.group | Temp_list.materialize, or
        Interp.exec per write statement, then Mvcc.gc every 64th write job]
     -> Exec_queue (wake) -> Protocol.encode_response -> Protocol.decode_response

   A span is recorded around each of those calls.  Reads are planned from
   the same Query.t the interpreter builds for the SQL.  After the request,
   the lower rungs run on the same inputs: Relation.lookup with and
   without a snapshot and the primary index's search for key accesses, and
   Select/Join/Project for reports. *)

open Mmdb_storage
open Mmdb_core
open Mmdb_net
module Counters = Mmdb_util.Counters

type response = Protocol.response

(* One request's replay as the server would have answered it, plus what
   the executor job measured. *)
type job_info = {
  resp : response;
  j_spans : Span.t;
  t_start : int;
  t_end : int;
  counts : Counters.snapshot;
  plan_words : float;
  exec_words : float;
  walked : int;  (** MVCC versions walked by a read *)
  out_rows : int;
  gc : (int * int) option;  (** this job's GC pass: ns, versions reclaimed *)
}

type ctx = {
  db : Db.t;
  mgr : Mmdb_txn.Txn.manager;
  sessions : Mmdb_lang.Interp.session array;  (** one per connection *)
  q : Exec_queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable write_jobs : int;
  mutable txns : int;
}

(* The server's defaults for the two process-wide planner/versioning
   knobs; the caller makes sure no MMDB_* variable is set. *)
let replica w data =
  Mmdb_txn.Mvcc.set_enabled true;
  Optimizer.set_cost_based true;
  let db = Db.create () in
  let mgr = Mmdb_txn.Txn.create_manager () in
  let loader = Mmdb_lang.Interp.session ~mgr db in
  let batches = Gen.load_batches w data in
  List.iter
    (fun sql ->
      match Mmdb_lang.Interp.exec_string loader sql with
      | Ok _ -> ()
      | Error msg -> failwith ("replica load failed: " ^ msg))
    batches;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  {
    db;
    mgr;
    sessions =
      Array.init Gen.connections (fun _ -> Mmdb_lang.Interp.session ~mgr db);
    q = Exec_queue.create ~mvcc:true ();
    wake_r;
    wake_w;
    (* the server counts its load batches as write jobs too *)
    write_jobs = List.length batches;
    txns = 0;
  }

let close ctx =
  Exec_queue.stop ctx.q;
  Unix.close ctx.wake_r;
  Unix.close ctx.wake_w

(* The Query.t and aggregation the interpreter builds for a read. *)
let read_query = function
  | Gen.Get k ->
      (Query.(from "KV" |> where_eq "K" (Value.Int k) |> project [ "KV.V" ]), None)
  | Gen.Report (t, a) -> (
      let q =
        Query.(from "EMP" |> where_between "AGE" ~lo:(Value.Int a) ~hi:(Value.Int (a + 4)))
      in
      match t with
      | Gen.Join_count ->
          ( Query.join "DEPT" ~on:("DEPT", "ID") q,
            Some ([ "DEPT.REGION" ], [ Aggregate.Count ]) )
      | Gen.Range_avg -> (q, Some ([ "EMP.AGE" ], [ Aggregate.Avg "EMP.SALARY" ]))
      | Gen.Distinct -> (Query.(q |> project [ "EMP.DEPT" ] |> distinct), None))
  | Gen.Put _ -> invalid_arg "read_query"

let words () = Gc.minor_words ()

(* The server's rendering of an outcome (tuple pointers never leave). *)
let sanitize =
  Array.map (function
    | (Value.Ref _ | Value.Refs _) as v -> Value.Str (Value.to_string v)
    | v -> v)

let read_job ctx ~traced ~parent ~rid req () =
  let t_start = Span.now () in
  let jr = Span.create ~on:traced ~parent ~rid () in
  let q, agg = read_query req in
  let result =
    Span.record jr "Mvcc.with_snapshot" (fun () ->
        Mmdb_txn.Mvcc.with_snapshot (fun _ ->
            let c0 = Counters.snapshot () and w0 = words () in
            let plan = Span.record jr "Optimizer.plan" (fun () -> Optimizer.plan ctx.db q) in
            let w1 = words () in
            let tl = Span.record jr "Executor.execute" (fun () -> Executor.execute plan) in
            let w2 = words () in
            let counts = Counters.diff (Counters.snapshot ()) c0 in
            let rows =
              match agg with
              | None ->
                  Span.record jr "Temp_list.materialize" (fun () ->
                      Protocol.Results
                        {
                          columns = Descriptor.labels (Temp_list.descriptor tl);
                          rows = List.map sanitize (Temp_list.materialize tl);
                        })
              | Some (by, aggs) ->
                  Span.record jr "Aggregate.group" (fun () ->
                      let g = Aggregate.group tl ~by ~aggs in
                      Protocol.Results
                        { columns = g.Aggregate.header; rows = g.Aggregate.rows })
            in
            let walked = Mmdb_txn.Mvcc.versions_walked () in
            (rows, counts, w1 -. w0, w2 -. w1, walked, Temp_list.length tl)))
  in
  let resp, counts, plan_words, exec_words, walked, out_rows = result in
  {
    resp;
    j_spans = jr;
    t_start;
    t_end = Span.now ();
    counts;
    plan_words;
    exec_words;
    walked;
    out_rows;
    gc = None;
  }

let stmt_kind : Mmdb_lang.Ast.stmt -> string = function
  | Mmdb_lang.Ast.Begin_txn -> "begin"
  | Commit_txn -> "commit"
  | Delete _ -> "delete"
  | Insert _ -> "insert"
  | Update _ -> "update"
  | _ -> "other"

(* The server's write path: the batch's statements in one job, the reply
   reflecting the last one, and an epoch GC pass every 64th write job. *)
let write_job ctx ~traced ~parent ~rid ~conn stmts () =
  let t_start = Span.now () in
  let jr = Span.create ~on:traced ~parent ~rid () in
  let sess = ctx.sessions.(conn) in
  let c0 = Counters.snapshot () in
  let rec go = function
    | [] -> Protocol.Message "(nothing to execute)"
    | stmt :: rest -> (
        match
          Span.record jr ("Interp.exec." ^ stmt_kind stmt) (fun () ->
              Mmdb_lang.Interp.exec sess stmt)
        with
        | Ok _ when rest <> [] -> go rest
        | Ok (Mmdb_lang.Interp.Message m) -> Protocol.Message m
        | Ok _ -> Protocol.Message "ok"
        | Error msg ->
            (* a failed batch leaves no transaction open on the replica *)
            if Mmdb_lang.Interp.in_txn sess then
              ignore (Mmdb_lang.Interp.exec sess Mmdb_lang.Ast.Rollback_txn);
            Protocol.Error (Protocol.Exec, msg))
  in
  let resp = go stmts in
  let counts = Counters.diff (Counters.snapshot ()) c0 in
  ctx.write_jobs <- ctx.write_jobs + 1;
  let gc =
    if ctx.write_jobs mod 64 = 0 then begin
      let t0 = Span.now () in
      let n =
        Span.record jr "Mvcc.gc" (fun () -> Mmdb_txn.Mvcc.gc (Db.relations ctx.db))
      in
      Some (Span.now () - t0, n)
    end
    else None
  in
  {
    resp;
    j_spans = jr;
    t_start;
    t_end = Span.now ();
    counts;
    plan_words = 0.;
    exec_words = 0.;
    walked = 0;
    out_rows = 0;
    gc;
  }

(* Replay one request in process.  [r]'s current span is the parent of
   every layer span recorded here. *)
let replay ctx (r : Span.t) ~conn req =
  let sql = Gen.sql req in
  let frame =
    Span.record r "Protocol.encode_request" (fun () ->
        Protocol.encode_request (Protocol.Query sql))
  in
  (match
     Span.record r "Protocol.decode_request" (fun () ->
         Protocol.decode_request (String.sub frame 4 (String.length frame - 4)))
   with
  | Ok (Protocol.Query s) when s = sql -> ()
  | _ -> failwith "request did not survive the wire encoding");
  let w0 = words () in
  let stmts =
    match Span.record r "Parser.parse" (fun () -> Mmdb_lang.Parser.parse sql) with
    | Ok stmts -> stmts
    | Error msg -> failwith ("parse: " ^ msg)
  in
  let parse_words = words () -. w0 in
  let traced = r.Span.on and parent = Span.current r and rid = r.Span.rid in
  let kind, job =
    if Gen.is_write req then (Exec_queue.Write, write_job ctx ~traced ~parent ~rid ~conn stmts)
    else (Exec_queue.Read, read_job ctx ~traced ~parent ~rid req)
  in
  let t_submit = Span.now () in
  let p = Exec_queue.submit ctx.q ~notify:ctx.wake_w ~kind job in
  let info =
    match Exec_queue.await p ~wakeup:ctx.wake_r ~deadline:(Unix.gettimeofday () +. 30.0) with
    | `Done (Ok info) -> info
    | `Done (Error e) -> raise e
    | `Timeout -> failwith "replica job timed out"
  in
  let t_return = Span.now () in
  ignore (Span.add r ~name:"Exec_queue.wait" ~t0:t_submit ~t1:info.t_start);
  Span.merge ~into:r info.j_spans;
  ignore (Span.add r ~name:"Exec_queue.wake" ~t0:info.t_end ~t1:t_return);
  let out =
    Span.record r "Protocol.encode_response" (fun () -> Protocol.encode_response info.resp)
  in
  (match
     Span.record r "Protocol.decode_response" (fun () ->
         Protocol.decode_response (String.sub out 4 (String.length out - 4)))
   with
  | Ok _ -> ()
  | Error msg -> failwith ("response did not survive the wire encoding: " ^ msg));
  (* every point UPDATE is its own transaction *)
  if Gen.is_write req then ctx.txns <- ctx.txns + 1;
  (info, parse_words)

(* --- lower rungs on the same inputs ------------------------------------ *)

let rel ctx name = Option.get (Db.find ctx.db name)

(* Key access below the operators: the relation lookup without and with a
   snapshot, and the primary index's own search. *)
let key_rungs ctx (r : Span.t) k =
  let kv = rel ctx "KV" in
  let probe = [| Value.Int k |] in
  let found = Span.record r "Relation.lookup" (fun () -> Relation.lookup kv probe) in
  ignore
    (Mmdb_txn.Mvcc.with_snapshot (fun _ ->
         Span.record r "Relation.lookup_snapshot" (fun () -> Relation.lookup kv probe)));
  match found with
  | [ t ] ->
      let (module P) = Relation.primary kv in
      ignore (Span.record r "Index.search" (fun () -> P.I.search P.handle t))
  | _ -> failwith (Printf.sprintf "KV key %d: expected exactly one tuple" k)

(* Operator kernels on a report's inputs, under a snapshot as the server
   reads.  Returns (rung, rows) for the per-row rates. *)
let operator_rungs ctx (r : Span.t) req =
  let q, _ = read_query req in
  Mmdb_txn.Mvcc.with_snapshot (fun _ ->
      let plan = Optimizer.plan ctx.db q in
      let preds = List.map snd plan.Optimizer.p_paths in
      let path =
        match plan.Optimizer.p_paths with (p, _) :: _ -> p | [] -> Select.Sequential_scan
      in
      let sel =
        Span.record r "Select.run" (fun () ->
            Select.run plan.Optimizer.p_outer ~path ~predicates:preds)
      in
      let out = [ ("Select.run", Temp_list.length sel) ] in
      let out =
        match plan.Optimizer.p_join with
        | Some (Optimizer.Algorithm m, outer, inner) ->
            let outer_filter t = List.for_all (Select.matches t) preds in
            let j =
              Span.record r "Join.run" (fun () ->
                  Join.run ~build_outer:plan.Optimizer.p_build_outer ~outer_filter m ~outer
                    ~inner)
            in
            ("Join.run", Temp_list.length j) :: out
        | Some (Optimizer.Precomputed _, _, _) | None -> out
      in
      if plan.Optimizer.p_distinct then begin
        let labels = Option.value ~default:[] plan.Optimizer.p_project in
        ignore
          (Span.record r "Project.run" (fun () ->
               Project.run plan.Optimizer.p_dedup_method sel labels));
        ("Project.run", Temp_list.length sel) :: out
      end
      else out)
