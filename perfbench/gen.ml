(* Seeded inputs for the two workloads: the table rows, one request
   stream per connection, and the answers the server must give.  The same
   seed always yields the same rows and the same streams; the server only
   ever sees the SQL rendered here. *)

type workload = Point | Analytic

let workload_of_string = function
  | "point" -> Some Point
  | "analytic" -> Some Analytic
  | _ -> None

let workload_name = function Point -> "point" | Analytic -> "analytic"

(* Table sizes are fixed for every run, so the x-axis of any comparison
   is the code, never the data. *)
let kv_rows = 10_000
let emp_rows = 10_000
let dept_rows = 100
let ages = 45 (* AGE in [20, 64] *)
let windows = 40 (* report windows start at AGE 20..59 and span 5 years *)
let load_batch = 500 (* INSERT statements per load request *)

(* Connections of every workload.  Two keep both of the server's cores busy.
   With one analytic connection the cores idled between a report's
   parallel phases, and the run-to-run spread on a shared host grew past
   the benchmark's bounds (NOTES.md). *)
let connections = 2

type template = Join_count | Range_avg | Distinct

type request =
  | Get of int  (** point read of key [k] *)
  | Put of int * int  (** point update [k] := [v] *)
  | Report of template * int  (** report over AGE [a, a+4] *)

let is_write = function Put _ -> true | Get _ | Report _ -> false

let sql = function
  | Get k -> Printf.sprintf "SELECT V FROM KV WHERE K = %d;" k
  | Put (k, v) -> Printf.sprintf "UPDATE KV SET V = %d WHERE K = %d;" v k
  | Report (Join_count, a) ->
      Printf.sprintf
        "SELECT DEPT.REGION, COUNT(*) FROM EMP JOIN DEPT ON EMP.DEPT = DEPT.ID \
         WHERE EMP.AGE BETWEEN %d AND %d GROUP BY DEPT.REGION;"
        a (a + 4)
  | Report (Range_avg, a) ->
      Printf.sprintf
        "SELECT AGE, AVG(SALARY) FROM EMP WHERE AGE BETWEEN %d AND %d GROUP BY \
         AGE;"
        a (a + 4)
  | Report (Distinct, a) ->
      Printf.sprintf "SELECT DISTINCT DEPT FROM EMP WHERE AGE BETWEEN %d AND %d;"
        a (a + 4)

(* --- rows ------------------------------------------------------------- *)

type emp = { id : int; dept : int; age : int; salary : int }

type data = {
  kv : int array;  (** V of key K, for K in [0, kv_rows) *)
  emp : emp array;
  region : int array;  (** REGION of department ID *)
}

let rng seed tag = Random.State.make [| seed; tag |]

let data seed =
  let st = rng seed 0 in
  let kv = Array.init kv_rows (fun _ -> Random.State.int st 1_000_000) in
  let emp =
    Array.init emp_rows (fun id ->
        let dept = Random.State.int st dept_rows in
        let age = 20 + Random.State.int st ages in
        let salary = 30_000 + Random.State.int st 170_000 in
        { id; dept; age; salary })
  in
  let region = Array.init dept_rows (fun _ -> Random.State.int st 10) in
  { kv; emp; region }

(* Multi-statement DDL + INSERT batches that load a workload's tables over
   the wire; the last statement builds the secondary index. *)
let load_batches w d =
  let batch = load_batch in
  let inserts table n row =
    List.init ((n + batch - 1) / batch) (fun b ->
        let lo = b * batch and hi = min n ((b + 1) * batch) in
        String.concat " "
          (List.init (hi - lo) (fun i ->
               Printf.sprintf "INSERT INTO %s VALUES (%s);" table (row (lo + i)))))
  in
  match w with
  | Point ->
      ("CREATE TABLE KV (K int PRIMARY KEY, V int);"
      :: inserts "KV" kv_rows (fun k -> Printf.sprintf "%d, %d" k d.kv.(k)))
      @ [ "CREATE INDEX kv_v ON KV (V) USING ttree;" ]
  | Analytic ->
      ("CREATE TABLE DEPT (ID int PRIMARY KEY, REGION int); CREATE TABLE EMP \
        (ID int PRIMARY KEY, DEPT int, AGE int, SALARY int);"
       :: inserts "DEPT" dept_rows (fun i -> Printf.sprintf "%d, %d" i d.region.(i))
      @ inserts "EMP" emp_rows (fun i ->
            let e = d.emp.(i) in
            Printf.sprintf "%d, %d, %d, %d" e.id e.dept e.age e.salary))
      @ [ "CREATE INDEX emp_age ON EMP (AGE) USING ttree;" ]

(* --- request streams --------------------------------------------------- *)

(* One connection's stream.  Point connections own the keys congruent to
   their index modulo the connection count, so each can check its own
   writes and no two connections write the same key. *)
type stream = { w : workload; conn : int; st : Random.State.t }

let stream w ~seed ~conn = { w; conn; st = rng seed (1 + conn) }
let own_key s = s.conn + (connections * Random.State.int s.st (kv_rows / connections))

let next s =
  match s.w with
  | Point ->
      if Random.State.int s.st 10 = 0 then
        let k = own_key s in
        Put (k, Random.State.int s.st 1_000_000)
      else Get (own_key s)
  | Analytic ->
      let t =
        match Random.State.int s.st 3 with
        | 0 -> Join_count
        | 1 -> Range_avg
        | _ -> Distinct
      in
      Report (t, 20 + Random.State.int s.st windows)

(* The one read sent on a single connection after setup and before the
   load starts.  It makes the server create its shared domain pool before
   any two reads can run at once (known defect 1 in NOTES.md). *)
let prime = function Point -> Get 0 | Analytic -> Report (Join_count, 20)

(* --- expected answers -------------------------------------------------- *)

(* The value model of the KV table: point applies every acknowledged
   write here, and reads and the final scan are checked against it.  A
   key that a failed write may or may not have changed is [unknown] from
   then on: later writes to it are still sent, but nothing checks its
   value again. *)
type model = {
  v : (int, int) Hashtbl.t;  (** expected V of each live key *)
  unknown : (int, unit) Hashtbl.t;
}

let model d =
  let v = Hashtbl.create kv_rows in
  Array.iteri (fun k x -> Hashtbl.replace v k x) d.kv;
  { v; unknown = Hashtbl.create 16 }

let apply m = function Put (k, v) -> Hashtbl.replace m.v k v | Get _ | Report _ -> ()

(* A write failed: its key's value is no longer predictable. *)
let forget m = function Put (k, _) -> Hashtbl.replace m.unknown k () | Get _ | Report _ -> ()

(* The value key [k] must have, when the model can still tell. *)
let expected m k = if Hashtbl.mem m.unknown k then None else Hashtbl.find_opt m.v k

(* A report's answer as sorted rows of rendered values; AVG is rounded to
   9 significant digits so summation order cannot flip the check. *)
type rows = string list list

let render_float f = Printf.sprintf "%.9g" f

let report_answer d t a : rows =
  let in_window e = e.age >= a && e.age <= a + 4 in
  let count_by key =
    let h = Hashtbl.create 16 in
    Array.iter
      (fun e ->
        if in_window e then begin
          let k = key e in
          let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt h k) in
          Hashtbl.replace h k (c + 1, s + e.salary)
        end)
      d.emp;
    List.of_seq (Hashtbl.to_seq h)
  in
  List.sort compare
  @@
  match t with
  | Join_count ->
      List.map
        (fun (r, (c, _)) -> [ string_of_int r; string_of_int c ])
        (count_by (fun e -> d.region.(e.dept)))
  | Range_avg ->
      List.map
        (fun (age, (c, s)) ->
          [ string_of_int age; render_float (float_of_int s /. float_of_int c) ])
        (count_by (fun e -> e.age))
  | Distinct -> List.map (fun (dept, _) -> [ string_of_int dept ]) (count_by (fun e -> e.dept))

let render_value : Mmdb_storage.Value.t -> string = function
  | Mmdb_storage.Value.Float f -> render_float f
  | v -> Mmdb_storage.Value.to_string v

let rows_of (rows : Mmdb_storage.Value.t array list) : rows =
  List.sort compare
    (List.map (fun r -> Array.to_list (Array.map render_value r)) rows)

(* Every report's answer, computed once: 3 templates x 40 windows. *)
let answers d =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun t ->
      for a = 20 to 20 + windows - 1 do
        Hashtbl.replace tbl (t, a) (report_answer d t a)
      done)
    [ Join_count; Range_avg; Distinct ];
  fun t a -> Hashtbl.find tbl (t, a)
