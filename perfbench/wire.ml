(* Everything that talks to the server process over loopback: request
   accounting, answer checks, setup (load over the wire) and the
   closed-loop load of the untraced run. *)

open Mmdb_net

(* --- accounting -------------------------------------------------------- *)

(* Every request the benchmark sends is counted here, setup and warm-up
   included; the first text of each error class is kept for the report. *)
type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** replies that disagree with the model *)
  mutable errors : (string * string) list;  (** class, first text *)
}

let acct () = { attempted = 0; failed = 0; wrong = 0; errors = [] }

let note a cls text =
  if not (List.mem_assoc cls a.errors) then a.errors <- a.errors @ [ (cls, text) ]

let merge_into a b =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  a.wrong <- a.wrong + b.wrong;
  List.iter (fun (c, t) -> note a c t) b.errors

(* Send one request; [None] when it failed (counted and classified). *)
let send a client sql =
  a.attempted <- a.attempted + 1;
  let fail cls text =
    a.failed <- a.failed + 1;
    note a cls text;
    None
  in
  match Client.query client sql with
  | Ok (Protocol.Error (code, msg)) ->
      let cls = Protocol.err_code_name code in
      let internal = String.starts_with ~prefix:"internal error" msg in
      fail (if internal then cls ^ "/internal" else cls) msg
  | Ok (Protocol.Busy msg) -> fail "busy" msg
  | Ok (Protocol.Overloaded { msg; _ }) -> fail "overloaded" msg
  | Ok resp -> Some resp
  | Error msg -> fail "transport" msg

let wrong a text =
  a.wrong <- a.wrong + 1;
  note a "wrong_answer" text

(* --- answer checks ----------------------------------------------------- *)

(* Check a reply against the model and, for writes, apply it.  [m] is the
   connection's own model: every key it reads or writes is its own. *)
let check a (m : Gen.model) answers req resp =
  let sql = Gen.sql req in
  match (req, resp) with
  | Gen.Get k, Protocol.Results { rows = [ [| Mmdb_storage.Value.Int v |] ]; _ } ->
      (match Gen.expected m k with
      | Some want when want <> v ->
          wrong a (Printf.sprintf "%s returned %d, last acknowledged write was %d" sql v want)
      | _ -> ())
  | Gen.Get _, r ->
      wrong a (Fmt.str "%s: expected exactly one row, got %a" sql Protocol.pp_response r)
  | Gen.Report (t, x), Protocol.Results { rows; _ } ->
      let got = Gen.rows_of rows and want = answers t x in
      if got <> want then
        let show r = String.concat "|" (List.map (String.concat ",") r) in
        wrong a
          (Printf.sprintf "%s: got %d rows [%s], the generated rows give %d [%s]" sql
             (List.length got) (show got) (List.length want) (show want))
  | Gen.Report _, r -> wrong a (Fmt.str "%s: expected rows, got %a" sql Protocol.pp_response r)
  | Gen.Put _, Protocol.Message _ -> Gen.apply m req
  | Gen.Put _, r ->
      wrong a (Fmt.str "%s: unexpected reply %a" sql Protocol.pp_response r)

(* How a full scan's (K, V) rows differ from the connections' models:
   [None] when they agree on every key whose value is known, in both key
   set and values.  Connection [c] owns the keys [k mod n = c]. *)
let scan_diff (models : Gen.model array) got =
  let n = Array.length models in
  let known k = k < 0 || not (Hashtbl.mem models.(k mod n).Gen.unknown k) in
  let got = List.sort compare (List.filter (fun (k, _) -> known k) got) in
  let want =
    Array.to_list models
    |> List.mapi (fun c (m : Gen.model) ->
           Hashtbl.fold
             (fun k v acc -> if k mod n = c && known k then (k, v) :: acc else acc)
             m.Gen.v [])
    |> List.concat |> List.sort compare
  in
  if got = want then None
  else
    Some
      (Printf.sprintf "final scan: %d rows differ from the model's %d rows"
         (List.length got) (List.length want))

(* The final full scan must equal the model exactly, keys and values. *)
let final_scan a client models =
  match send a client "SELECT K, V FROM KV;" with
  | None -> ()
  | Some (Protocol.Results { rows; _ }) -> (
      let pair = function
        | [| Mmdb_storage.Value.Int k; Mmdb_storage.Value.Int v |] -> (k, v)
        | _ -> (-1, -1)
      in
      match scan_diff models (List.map pair rows) with
      | Some text -> wrong a text
      | None -> ())
  | Some _ -> wrong a "final scan did not return rows"

(* --- setup ------------------------------------------------------------- *)

type setup = {
  srv : Proc.t;
  client : Client.t;
  setup_s : float;  (** server start until data loaded and indexed *)
  rss_kb : int;
}

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error msg -> failwith ("connect: " ^ msg)

let setup a ~exe ~log w data =
  let srv = Proc.spawn ~exe ~log in
  let client = connect srv.Proc.port in
  List.iter
    (fun sql ->
      match send a client sql with
      | Some (Protocol.Message _) -> ()
      | _ -> failwith ("load failed: " ^ String.concat "; " (List.map snd a.errors)))
    (Gen.load_batches w data);
  let setup_s = Unix.gettimeofday () -. srv.Proc.started in
  { srv; client; setup_s; rss_kb = Proc.rss_kb srv.Proc.pid }

let teardown s =
  (try Client.close s.client with _ -> ());
  Proc.stop s.srv

(* Send [Gen.prime] on the setup connection and check its answer. *)
let prime a client w data answers =
  let req = Gen.prime w in
  match send a client (Gen.sql req) with
  | Some r -> check a (Gen.model data) answers req r
  | None -> ()

(* A request counter from the server's STATS JSON, e.g. the statement
   cache's hits and misses. *)
let stat_int json key =
  let module J = Mmdb_util.Json in
  Option.bind (Result.to_option (J.parse json)) (fun j ->
      Option.bind (J.member "requests" j) (fun r -> Option.bind (J.member key r) J.to_int_opt))

(* --- closed-loop load -------------------------------------------------- *)

type sample = { done_at : float; lat : float; write : bool }

type conn_run = {
  c_acct : acct;
  c_model : Gen.model;
  mutable samples : sample list;
}

(* Each connection sends its next request only after the previous reply
   arrived; it stops issuing at [until]. *)
let conn_loop w ~seed ~port ~conn ~data ~answers ~until =
  let a = acct () and m = Gen.model data in
  let run = { c_acct = a; c_model = m; samples = [] } in
  let client = connect port in
  let s = Gen.stream w ~seed ~conn in
  while Unix.gettimeofday () < until do
    let req = Gen.next s in
    let t0 = Unix.gettimeofday () in
    let resp = send a client (Gen.sql req) in
    let t1 = Unix.gettimeofday () in
    match resp with
    | Some r ->
        check a m answers req r;
        run.samples <- { done_at = t1; lat = t1 -. t0; write = Gen.is_write req } :: run.samples
    | None -> Gen.forget m req
  done;
  (try Client.close client with _ -> ());
  run

let run_load w ~seed ~port ~data ~answers ~warmup ~seconds =
  let start = Unix.gettimeofday () in
  let w0 = start +. warmup in
  let until = w0 +. seconds in
  let runs = Array.make Gen.connections None in
  let threads =
    List.init Gen.connections (fun conn ->
        Thread.create
          (fun () ->
            runs.(conn) <-
              Some
                (try Ok (conn_loop w ~seed ~port ~conn ~data ~answers ~until)
                 with e -> Error (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  let runs =
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error e) -> failwith ("load thread: " ^ e)
        | None -> assert false)
      runs
  in
  let in_window =
    List.concat_map
      (fun r -> List.filter (fun s -> s.done_at >= w0 && s.done_at <= until) r.samples)
      (Array.to_list runs)
  in
  (runs, in_window)
