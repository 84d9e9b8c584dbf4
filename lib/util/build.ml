(* Build provenance: the checkout's short git revision, so STATUS dumps,
   STATS payloads, and bench JSONL records identify the build they came
   from.  "unknown" outside a git checkout (e.g. a release tarball). *)

(* Read by server threads and reader domains alike, so the one-time
   read goes through [Domain_pool.once], not [lazy]. *)
let git_rev =
  Domain_pool.once (fun () ->
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, rev when rev <> "" -> rev
        | _ -> "unknown"
      with _ -> "unknown")
