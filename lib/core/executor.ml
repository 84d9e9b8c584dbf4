(** Plan execution: turn an {!Optimizer.plan} into a temporary list.

    Pipelines follow the paper's architecture: selections produce temporary
    lists of tuple pointers through the planned access path; a join reads
    its outer side through that same path (the selection's list when the
    path is an index lookup, the relation scan with the predicates applied
    when it is a sequential scan); projection narrows the descriptor and
    (only when [DISTINCT] was requested) eliminates duplicates — "it is
    never needed to reduce the size of the result tuples, because tuples
    are never copied, only pointed to" (§4). *)

open Mmdb_util
open Mmdb_storage

(* The plan's leading access path with every predicate, the first being
   the one that path serves. *)
let outer_path plan =
  match plan.Optimizer.p_paths with
  | [] -> None
  | (path, _) :: _ -> Some (path, List.map snd plan.Optimizer.p_paths)

(* A single-relation plan: run the (indexed) selection directly; the
   optimizer's cardinality estimate rides along for the feedback loop. *)
let run_select ?pool plan =
  let path, predicates =
    Option.value (outer_path plan) ~default:(Select.Sequential_scan, [])
  in
  Select.run ?pool ~est_rows:plan.Optimizer.p_est_sel plan.Optimizer.p_outer
    ~path ~predicates

let run_join ?pool plan (choice, outer_side, inner_side) =
  let est_rows = plan.Optimizer.p_est_join in
  let outer_path = outer_path plan in
  match choice with
  | Optimizer.Algorithm m ->
      Join.run ?pool ~build_outer:plan.Optimizer.p_build_outer ?outer_path
        ?est_rows m ~outer:outer_side ~inner:inner_side
  | Optimizer.Precomputed col ->
      Join.precomputed ?est_rows ?outer_path ~outer:plan.Optimizer.p_outer
        ~ref_col:col
        ~inner_schema:(Relation.schema inner_side.Join.rel)
        ()

(* [pool] defaults to the process-wide pool, so every caller (interp,
   server, shell) gets intra-query parallelism on large inputs without
   plumbing; MMDB_DOMAINS=1 makes that pool sequential.  Operators called
   directly (tests, benches) stay sequential unless handed a pool. *)
let execute ?pool plan =
  Trace.with_span "execute" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Domain_pool.global () in
  let result =
    match plan.Optimizer.p_join with
    | None -> run_select ~pool plan
    | Some j -> run_join ~pool plan j
  in
  let result =
    match plan.Optimizer.p_project with
    | None -> result
    | Some labels ->
        if plan.Optimizer.p_distinct then
          Project.run ~pool plan.Optimizer.p_dedup_method result labels
        else Temp_list.project result labels
  in
  if plan.Optimizer.p_distinct && plan.Optimizer.p_project = None then
    Project.run ~pool plan.Optimizer.p_dedup_method result
      (Descriptor.labels (Temp_list.descriptor result))
  else result

(* One-call convenience: plan and run. *)
let query ?pool ?stats db q = execute ?pool (Optimizer.plan ?stats db q)

(* Render a result as strings, for the examples and the CLI. *)
let rows tl =
  List.map
    (fun row -> Array.to_list (Array.map Value.to_string row))
    (Temp_list.materialize tl)

let pp_result ppf tl =
  let labels = Descriptor.labels (Temp_list.descriptor tl) in
  Fmt.pf ppf "@[<v>%a@," (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) labels;
  List.iter
    (fun row -> Fmt.pf ppf "%a@," (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) row)
    (rows tl);
  Fmt.pf ppf "(%d rows)@]" (Temp_list.length tl)
