(* The server under test runs in its own process, started from the built
   [mmdb_server] with its shipped defaults: only [--port 0] is passed, and
   any MMDB_* knob in the environment is dropped so it cannot change them. *)

type t = { pid : int; port : int; started : float }

let live : int list ref = ref []

let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 5 && String.sub kv 0 5 = "MMDB_"))
       (Array.to_list (Unix.environment ())))

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* The server prints "mmdb_server listening on HOST:PORT (max N
   connections)" once bound; the text after the port shows the line is
   complete. *)
let port_of_log text =
  try Scanf.sscanf text "mmdb_server listening on %_[^:]:%d (max" Option.some with _ -> None

(* A server's state is never needed after its run, so it is killed
   outright: a graceful drain would add the server's shutdown polling to
   every one of the setups. *)
let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let stop t = kill t.pid
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~exe ~log =
  let started = Unix.gettimeofday () in
  let err = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process_env exe [| exe; "--port"; "0" |] (clean_env ()) null null err
  in
  Unix.close err;
  Unix.close null;
  live := pid :: !live;
  let rec wait_port () =
    match port_of_log (read_file log) with
    | Some port -> port
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () -. started < 30.0 ->
            Unix.sleepf 0.001;
            wait_port ()
        | _ ->
            failwith ("server did not start: " ^ String.trim (read_file log)))
  in
  { pid; port = wait_port (); started }

(* Resident set of a process, in kB. *)
let rss_kb pid =
  let text = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmRSS:")
      (String.split_on_char '\n' text)
  with
  | None -> 0
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> kb)

let nproc () = Domain.recommended_domain_count ()

(* The checked-out revision, when the tree is a git work tree. *)
let git_rev () =
  let head = String.trim (read_file ".git/HEAD") in
  if head = "" then "unknown"
  else if String.length head > 5 && String.sub head 0 5 = "ref: " then
    let r = String.trim (read_file (".git/" ^ String.sub head 5 (String.length head - 5))) in
    if r = "" then "unknown" else r
  else head
