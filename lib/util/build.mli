(** Build provenance. *)

val git_rev : unit -> string
(** The checkout's short git revision, determined once (on first call) by shelling
    out to [git rev-parse]; ["unknown"] outside a git checkout. *)
