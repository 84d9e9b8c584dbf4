(** Fixed-size execution batches: the unit of the vectorized operator
    paths.

    A batch is a short vector of tuple pointers plus a parallel slice of
    extracted values for one {e hot} column (the scan predicate column,
    a join key).  Producers ({!Relation.iter_batches}) fill both arrays
    in one tight pass — resolving MVCC versions and the forwarding chain
    once per tuple at fill time — so consuming kernels run monomorphic
    loops over the contiguous key slice instead of dereferencing a tuple
    pointer (and re-reading the domain-local snapshot state) per field
    access.

    Key extraction is {e uncounted}: the consuming kernel accounts the
    paper's §3.1 logical operations itself, bump-for-bump against the
    tuple-at-a-time path, so operation-count equivalence holds exactly.
    See DESIGN.md "Batched execution".

    The [MMDB_BATCH] knob: [0] disables batching (the paper-faithful
    tuple-at-a-time ablation), [1] or unset enables it at the default
    size, any larger integer enables it at that batch size. *)

let default_size = 256

let parse_env = function
  | Some ("0" | "false" | "off" | "no") -> (false, default_size)
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 1 -> (true, n)
      | _ -> (true, default_size))
  | None -> (true, default_size)

let state = ref (parse_env (Sys.getenv_opt "MMDB_BATCH"))

let enabled () = fst !state
let size () = snd !state
let set_enabled b = state := (b, snd !state)

let set_size n =
  if n <= 0 then state := (false, default_size)
  else state := (fst !state, max 1 n)

let configure ~enabled ~size =
  state := (enabled, if size > 0 then size else default_size)

(* --- observability ------------------------------------------------------ *)

(* Process-global production counters for STATS: how many batches the
   scan entry points produced and how many rows rode in them. *)
let batches_produced = Atomic.make 0
let rows_batched = Atomic.make 0

let note_batch ~rows =
  Atomic.incr batches_produced;
  ignore (Atomic.fetch_and_add rows_batched rows)

type stats = { st_enabled : bool; st_size : int; st_batches : int; st_rows : int }

let stats () =
  {
    st_enabled = enabled ();
    st_size = size ();
    st_batches = Atomic.get batches_produced;
    st_rows = Atomic.get rows_batched;
  }

(* --- the batch itself --------------------------------------------------- *)

type t = {
  tuples : Tuple.t array;  (** valid in [0, n) *)
  keys : Value.t array;  (** hot-column values, parallel to [tuples] *)
  mutable n : int;
}

let create ?size:(cap = size ()) () =
  let cap = max 1 cap in
  {
    (* a young filler forces a minor collection past 256 slots *)
    tuples = Mmdb_util.Arrays.make cap (Tuple.probe [||]);
    keys = Array.make cap Value.Null;
    n = 0;
  }

(* Batch production over any tuple iteration ([Relation.iter], a
   temporary list's entries, a filtered scan): fill one reused batch in
   [iter] order, extracting [key_col] at fill time through a snapshot
   reader captured once, and hand each full batch (and the last partial
   one) to [f]. *)
let fill ?key_col ?size iter f =
  let b = create ?size () in
  let tuples = b.tuples and keys = b.keys in
  let cap = Array.length tuples in
  let flush () =
    if b.n > 0 then begin
      note_batch ~rows:b.n;
      f b;
      b.n <- 0
    end
  in
  let push =
    match key_col with
    | None ->
        fun tu ->
          let n = b.n in
          tuples.(n) <- tu;
          b.n <- n + 1;
          if n + 1 >= cap then flush ()
    | Some c ->
        let read = Tuple.scan_reader () in
        fun tu ->
          let n = b.n in
          tuples.(n) <- tu;
          keys.(n) <- read tu c;
          b.n <- n + 1;
          if n + 1 >= cap then flush ()
  in
  iter push;
  flush ()
