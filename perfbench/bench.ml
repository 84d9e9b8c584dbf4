(* The repo benchmark.  One run measures one workload against the server
   in its own process and prints, as its last line, one JSON object:

     bench.exe --server EXE --workload point|analytic --seed N
               --seconds S --trace 0|1

   --trace 0 is the untraced run and reports the end-to-end metrics;
   --trace 1 is the traced run and reports the per-layer metrics (see
   NOTES.md for what each should move).  Every answer is checked; a wrong
   one makes the run fail with exit code 1.  Spans and a copy of the
   result go to perfbench-out/. *)

open Perfbench

let out_dir = "perfbench-out"
let setups = 21
let warmup = 1.0

let usage () =
  prerr_endline
    "usage: bench.exe --server EXE --workload point|analytic --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = { server : string; w : Gen.workload; seed : int; seconds : float; trace : bool }

let parse_args () =
  let server = ref None and w = ref None and seed = ref 1 in
  let seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--server" :: v :: rest -> server := Some v; go rest
    | "--workload" :: v :: rest -> w := Gen.workload_of_string v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!server, !w) with
  | Some server, Some w when !seconds > 0. ->
      { server; w; seed = !seed; seconds = !seconds; trace = !trace }
  | _ -> usage ()

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

(* --- the untraced run: end-to-end metrics ------------------------------ *)

let end_to_end a args ~log =
  let w = args.w in
  let data = Gen.data args.seed in
  let answers = Gen.answers data in
  (* set up several times and report the median; the last server stays
     up for the measured window *)
  let rec setup_n k acc =
    let s = Wire.setup a ~exe:args.server ~log w data in
    if k = setups then (s, List.rev (s :: acc))
    else begin
      Wire.teardown s;
      setup_n (k + 1) (s :: acc)
    end
  in
  let s, all = setup_n 1 [] in
  Wire.prime a s.Wire.client w data answers;
  let runs, window =
    Wire.run_load w ~seed:args.seed ~port:s.Wire.srv.Proc.port ~data ~answers ~warmup
      ~seconds:args.seconds
  in
  Array.iter (fun r -> Wire.merge_into a r.Wire.c_acct) runs;
  (match w with
  | Gen.Point ->
      Wire.final_scan a s.Wire.client (Array.map (fun r -> r.Wire.c_model) runs)
  | Gen.Analytic -> ());
  Wire.teardown s;
  if window = [] then failwith "no request completed in the measured window";
  let ms l = Array.of_list (List.map (fun x -> 1e3 *. x) l) in
  let pct p a = Mmdb_util.Stats.percentile a p in
  let lat = ms (List.map (fun x -> x.Wire.lat) window) in
  let n = List.length window in
  (* UPDATE latency on point, which p50 and p90 cannot show while reads
     are 100x slower; analytic sends no writes, so it is a summary line
     rather than a gated metric *)
  (match List.filter_map (fun x -> if x.Wire.write then Some x.Wire.lat else None) window with
  | [] -> ()
  | writes ->
      Printf.printf "%-36s %14s %-6s (n=%d)\n" "write_p50_ms"
        (number (pct 50. (ms writes))) "ms" (List.length writes));
  [
    ("ops_per_s", "1/s", float_of_int n /. args.seconds, n);
    ("p50_ms", "ms", pct 50. lat, n);
    ("p90_ms", "ms", pct 90. lat, n);
    ("setup_s", "s", pct 50. (Array.of_list (List.map (fun s -> s.Wire.setup_s) all)), setups);
    ( "loaded_rss_mb", "MB",
      pct 50. (Array.of_list (List.map (fun s -> float_of_int s.Wire.rss_kb /. 1024.) all)),
      setups );
  ]

let () =
  let args = parse_args () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let name =
    Printf.sprintf "%s-%d-%d" (Gen.workload_name args.w) args.seed (Bool.to_int args.trace)
  in
  let log = Filename.concat out_dir (name ^ ".server.log") in
  let a = Wire.acct () in
  let metrics =
    try
      if args.trace then begin
        let r =
          Traced.run a args.w ~seed:args.seed ~seconds:args.seconds ~exe:args.server ~log
        in
        let win = r.Traced.win in
        let traced = List.length win.Traced.records in
        Span.write (Filename.concat out_dir (name ^ ".spans.jsonl")) win.Traced.spans;
        Printf.printf "traced: %d requests, %d traced (spans in %s)\n" win.Traced.requests
          traced out_dir;
        List.map
          (fun (m, unit) -> (m, unit, List.assoc m r.Traced.values, traced))
          Traced.metrics
      end
      else end_to_end a args ~log
    with e ->
      Printf.eprintf "benchmark failed: %s\n" (Printexc.to_string e);
      exit 2
  in
  let correct = a.Wire.wrong = 0 in
  let config =
    [
      ("workload", Printf.sprintf "%S" (Gen.workload_name args.w));
      ("seed", string_of_int args.seed);
      ("seconds", number args.seconds);
      ("trace", string_of_bool args.trace);
      ("nproc", string_of_int (Proc.nproc ()));
      ("rev", Printf.sprintf "%S" (Proc.git_rev ()));
      ("mvcc", "true");
      ("cost_planner", "true");
      ("advisor", "false");
      ("domains", string_of_int (Mmdb_util.Domain_pool.default_size ()));
      ("request_timeout_s", "30");
    ]
  in
  print_endline (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) config));
  Printf.printf "attempted=%d failed=%d wrong=%d error_rate=%s\n" a.Wire.attempted a.Wire.failed
    a.Wire.wrong
    (number (float_of_int a.Wire.failed /. float_of_int (max 1 a.Wire.attempted)));
  List.iter (fun (cls, text) -> Printf.printf "first %s error: %s\n" cls text) a.Wire.errors;
  List.iter
    (fun (m, unit, v, n) -> Printf.printf "%-36s %14s %-6s (n=%d)\n" m (number v) unit n)
    metrics;
  let json =
    Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
      a.Wire.attempted a.Wire.failed
      (String.concat ", "
         (List.map
            (fun (m, unit, v, _) ->
              Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m (number v) unit)
            metrics))
  in
  (* the saved copy also records the configuration of the run *)
  Out_channel.with_open_text (Filename.concat out_dir (name ^ ".json")) (fun oc ->
      Printf.fprintf oc {|{"config": {%s}, "result": %s}|}
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) config))
        json;
      output_char oc '\n');
  print_endline json;
  exit (if correct then 0 else 1)
