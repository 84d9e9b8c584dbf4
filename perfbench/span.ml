(* The traced run's span recorder.  The benchmark records one span around
   each call it makes into a layer: name, start, end, parent span and
   request id.  Spans stay in memory and are written out when the run
   ends.  This is deliberately separate from the program's own tracing,
   which would switch on operator spans inside the code being measured. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  rid : int;  (** request id shared by every span of one request *)
  name : string;
  t0 : int;  (** monotonic ns *)
  t1 : int;
}

let now () = Int64.to_int (Monotonic_clock.now ())
let ids = Atomic.make 1

(* One recorder per thread of control: the executor job gets its own,
   rooted under the span that submitted it, and is merged afterwards. *)
type t = {
  rid : int;
  on : bool;  (** off: calls run unrecorded, for the untraced comparison *)
  mutable stack : int list;
  mutable spans : span list;
}

let create ?(on = true) ?(parent = 0) ~rid () = { rid; on; stack = [ parent ]; spans = [] }
let current r = List.hd r.stack

let add r ~name ~t0 ~t1 =
  if not r.on then 0
  else
  let id = Atomic.fetch_and_add ids 1 in
  r.spans <- { id; parent = current r; rid = r.rid; name; t0; t1 } :: r.spans;
  id

(* Record [f]'s call as a span; spans opened inside it become children. *)
let record r name f =
  if not r.on then f ()
  else
  let id = Atomic.fetch_and_add ids 1 in
  let parent = current r in
  r.stack <- id :: r.stack;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; rid = r.rid; name; t0; t1 } :: r.spans)
    f

let merge ~into r = into.spans <- r.spans @ into.spans
let dur s = s.t1 - s.t0

let to_json s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"rid":%d,"name":%S,"t0":%d,"t1":%d}|} s.id s.parent
    s.rid s.name s.t0 s.t1

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) spans);
  close_out oc
