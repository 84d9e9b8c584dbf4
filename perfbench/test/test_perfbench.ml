(* Tests of the benchmark itself: seeded request streams, repeatable §3.1
   counts in the traced replay, and spans that tile their request. *)

open Perfbench

let workloads = [ Gen.Point; Gen.Analytic ]

let stream_text w ~seed n =
  let b = Buffer.create 65536 in
  for conn = 0 to Gen.connections - 1 do
    let s = Gen.stream w ~seed ~conn in
    for _ = 1 to n do
      Buffer.add_string b (Gen.sql (Gen.next s));
      Buffer.add_char b '\n'
    done
  done;
  Buffer.contents b

let test_stream_repeats () =
  List.iter
    (fun w ->
      let name = Gen.workload_name w in
      let a = stream_text w ~seed:7 5000 in
      Alcotest.(check string) (name ^ ": same seed, same bytes") a (stream_text w ~seed:7 5000);
      Alcotest.(check bool)
        (name ^ ": another seed differs")
        false
        (a = stream_text w ~seed:8 5000);
      Alcotest.(check bool)
        (name ^ ": same rows")
        true
        (Gen.load_batches w (Gen.data 7) = Gen.load_batches w (Gen.data 7)))
    workloads

(* Replay the first [n] requests of a fresh replica, traced; return the
   summed counts and every span. *)
let replay_counts w ~seed n =
  Mmdb_core.Feedback.reset ();
  Mmdb_core.Column_stats.reset ();
  let data = Gen.data seed in
  let answers = Gen.answers data in
  let ctx = Ladder.replica w data in
  let streams = Array.init Gen.connections (fun conn -> Gen.stream w ~seed ~conn) in
  let models = Array.init Gen.connections (fun _ -> Gen.model data) in
  let a = Wire.acct () in
  let counts = ref Mmdb_util.Counters.zero and spans = ref [] in
  for i = 0 to n - 1 do
    let conn = i mod Gen.connections in
    let req = Gen.next streams.(conn) in
    let r = Span.create ~rid:(i + 1) () in
    let info, _ =
      Span.record r "request" (fun () ->
          Span.record r "replay" (fun () -> Ladder.replay ctx r ~conn req))
    in
    Wire.check a models.(conn) answers req info.Ladder.resp;
    counts := Mmdb_util.Counters.add !counts info.Ladder.counts;
    spans := r.Span.spans @ !spans
  done;
  Ladder.close ctx;
  Alcotest.(check int) (Gen.workload_name w ^ ": replica answers are right") 0 a.Wire.wrong;
  (!counts, !spans)

let test_counts_repeat () =
  List.iter
    (fun w ->
      let c1, _ = replay_counts w ~seed:3 12 and c2, _ = replay_counts w ~seed:3 12 in
      let show c = Fmt.str "%a" Mmdb_util.Counters.pp c in
      Alcotest.(check string) (Gen.workload_name w ^ ": identical counts") (show c1) (show c2);
      Alcotest.(check bool)
        (Gen.workload_name w ^ ": something counted")
        true
        (c1 <> Mmdb_util.Counters.zero))
    workloads

let test_spans_tile () =
  List.iter
    (fun w ->
      let _, spans = replay_counts w ~seed:5 8 in
      List.iter
        (fun (p : Span.span) ->
          let kids = List.filter (fun (c : Span.span) -> c.Span.parent = p.Span.id) spans in
          List.iter
            (fun (c : Span.span) ->
              if c.Span.t0 < p.Span.t0 || c.Span.t1 > p.Span.t1 then
                Alcotest.failf "%s: %s lies outside its parent %s" (Gen.workload_name w)
                  c.Span.name p.Span.name)
            kids;
          let covered = List.fold_left (fun n c -> n + Span.dur c) 0 kids in
          if covered > Span.dur p then
            Alcotest.failf "%s: children of %s cover %d ns of its %d ns" (Gen.workload_name w)
              p.Span.name covered (Span.dur p))
        spans;
      let names = List.map (fun (s : Span.span) -> s.Span.name) spans in
      List.iter
        (fun layer ->
          if not (List.mem layer names) then
            Alcotest.failf "%s: no %s span" (Gen.workload_name w) layer)
        [
          "Protocol.encode_request";
          "Parser.parse";
          "Exec_queue.wait";
          "Exec_queue.wake";
          "Protocol.decode_response";
        ])
    workloads

(* The replica's KV table as (K, V) pairs, read the way the server reads
   it. *)
let scan ctx =
  match Mmdb_lang.Interp.exec_string ctx.Ladder.sessions.(0) "SELECT K, V FROM KV;" with
  | Ok [ Mmdb_lang.Interp.Rows tl ] ->
      List.map
        (function
          | [| Mmdb_storage.Value.Int k; Mmdb_storage.Value.Int v |] -> (k, v)
          | _ -> Alcotest.fail "KV row is not two ints")
        (Mmdb_storage.Temp_list.materialize tl)
  | _ -> Alcotest.fail "scan of the replica failed"

(* A write that fails may or may not have happened.  Either way the run
   stays correct: later reads and the final scan skip its keys.  A wrong
   or missing row on any other key still fails the scan. *)
let test_failed_write () =
  List.iter
    (fun (w, applied) ->
      let name =
        Printf.sprintf "%s, write %sapplied" (Gen.workload_name w)
          (if applied then "" else "not ")
      in
      let data = Gen.data 11 in
      let answers = Gen.answers data in
      let ctx = Ladder.replica w data in
      let n = Gen.connections in
      let streams = Array.init n (fun conn -> Gen.stream w ~seed:11 ~conn) in
      let models = Array.init n (fun _ -> Gen.model data) in
      let a = Wire.acct () and failed = ref false in
      let replay i conn req =
        fst (Ladder.replay ctx (Span.create ~on:false ~rid:i ()) ~conn req)
      in
      for i = 0 to 199 do
        let conn = i mod n in
        let req = Gen.next streams.(conn) in
        if (not !failed) && Gen.is_write req then begin
          failed := true;
          if applied then ignore (replay i conn req);
          Gen.forget models.(conn) req
        end
        else Wire.check a models.(conn) answers req (replay i conn req).Ladder.resp
      done;
      let rows = scan ctx in
      Ladder.close ctx;
      Alcotest.(check bool) (name ^ ": a write failed") true !failed;
      Alcotest.(check int) (name ^ ": no wrong reply") 0 a.Wire.wrong;
      Alcotest.(check (option string)) (name ^ ": scan matches") None (Wire.scan_diff models rows);
      let known (k, _) = not (Hashtbl.mem models.(k mod n).Gen.unknown k) in
      let k, v = List.find known rows in
      let others = List.filter (fun (k', _) -> k' <> k) rows in
      Alcotest.(check bool) (name ^ ": a changed value shows") true
        (Wire.scan_diff models ((k, v + 1) :: others) <> None);
      Alcotest.(check bool) (name ^ ": a missing row shows") true
        (Wire.scan_diff models others <> None))
    [ (Gen.Point, true); (Gen.Point, false) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "same seed, same request stream" `Quick test_stream_repeats;
          Alcotest.test_case "traced counts repeat for a seed" `Quick test_counts_repeat;
          Alcotest.test_case "layer spans tile their request" `Quick test_spans_tile;
          Alcotest.test_case "a failed write leaves the run correct" `Quick test_failed_write;
        ] );
    ]
