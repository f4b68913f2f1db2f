(* Per-layer attribution for the traced run. It reads only what the
   engine already exposes: the spans of a [Dbspinner_obs.Trace]
   collector installed with [Engine.enable_trace], and the deltas of
   [Engine.session_stats]. *)

module Engine = Dbspinner.Engine
module Stats = Dbspinner_exec.Stats
module Trace = Dbspinner_obs.Trace

(** Accumulated spans and counters of every traced query. *)
type t = {
  mutable queries : int;
  mutable iteration_ms : float list;  (** iteration spans after the first *)
  mutable first_iteration_ms : float list;
  op_ms : float array;  (** operator spans summed, by [Stats.op_index] *)
  mutable materialize_ms : float;
  mutable rename_us : float list;
  mutable loop_end_ms : float;
  mutable delta_steps : int;  (** delta_materialize step spans *)
  counts : counts;  (** session-stats deltas summed *)
}

and counts = {
  mutable join_probes : int;
  mutable rows_aggregated : int;
  mutable rows_materialized : int;
  mutable loop_iterations : int;
  mutable restricted_rows : int;
  mutable full_reevals : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create () =
  {
    queries = 0;
    iteration_ms = [];
    first_iteration_ms = [];
    op_ms = Array.make (List.length Stats.all_ops) 0.0;
    materialize_ms = 0.0;
    rename_us = [];
    loop_end_ms = 0.0;
    delta_steps = 0;
    counts =
      {
        join_probes = 0;
        rows_aggregated = 0;
        rows_materialized = 0;
        loop_iterations = 0;
        restricted_rows = 0;
        full_reevals = 0;
        cache_hits = 0;
        cache_misses = 0;
      };
  }

let has_prefix p s = String.starts_with ~prefix:p s

let add_span t (s : Trace.span) =
  match s.Trace.kind with
  | Trace.Iteration ->
    if s.Trace.iteration <= 1 then
      t.first_iteration_ms <- s.Trace.wall_ms :: t.first_iteration_ms
    else t.iteration_ms <- s.Trace.wall_ms :: t.iteration_ms
  | Trace.Operator -> (
    match
      List.find_opt (fun op -> Stats.op_name op = s.Trace.label) Stats.all_ops
    with
    | Some op ->
      let i = Stats.op_index op in
      t.op_ms.(i) <- t.op_ms.(i) +. s.Trace.wall_ms
    | None -> ())
  | Trace.Step ->
    let l = s.Trace.label in
    if has_prefix "delta_materialize:" l then begin
      t.delta_steps <- t.delta_steps + 1;
      t.materialize_ms <- t.materialize_ms +. s.Trace.wall_ms
    end
    else if has_prefix "materialize:" l then
      t.materialize_ms <- t.materialize_ms +. s.Trace.wall_ms
    else if has_prefix "rename:" l then
      t.rename_us <- (s.Trace.wall_ms *. 1000.0) :: t.rename_us
    else if has_prefix "loop_end:" l then
      t.loop_end_ms <- t.loop_end_ms +. s.Trace.wall_ms
  | Trace.Program -> ()

(** Run [f] (one query on [engine]) with tracing on and fold its spans
    and counter deltas into [t]. The engine's trace setting is
    restored afterwards. *)
let traced t engine f =
  let before_trace = Engine.trace engine in
  let tr = Engine.enable_trace engine in
  let min_seq = Trace.next_seq tr in
  let s0 = Stats.copy (Engine.session_stats engine) in
  Fun.protect
    ~finally:(fun () -> Engine.set_trace engine before_trace)
    (fun () ->
      let r = f () in
      let s1 = Engine.session_stats engine in
      let d get = get s1 - get s0 in
      let c = t.counts in
      c.join_probes <- c.join_probes + d (fun s -> s.Stats.join_probes);
      c.rows_aggregated <-
        c.rows_aggregated + d (fun s -> s.Stats.rows_aggregated);
      c.rows_materialized <-
        c.rows_materialized + d (fun s -> s.Stats.rows_materialized);
      c.loop_iterations <-
        c.loop_iterations + d (fun s -> s.Stats.loop_iterations);
      c.restricted_rows <-
        c.restricted_rows + d (fun s -> s.Stats.delta_rows_evaluated);
      c.full_reevals <- c.full_reevals + d (fun s -> s.Stats.full_reevals);
      c.cache_hits <- c.cache_hits + d (fun s -> s.Stats.cache_hits);
      c.cache_misses <- c.cache_misses + d (fun s -> s.Stats.cache_misses);
      List.iter (add_span t) (Trace.spans ~min_seq tr);
      t.queries <- t.queries + 1;
      r)

let op t op = t.op_ms.(Stats.op_index op)

(** Executor, delta and storage metrics, per traced query. *)
let metrics t : (string * float) list =
  let q = float_of_int (max 1 t.queries) in
  let per_query x = x /. q in
  let c = t.counts in
  let join_ms = op t Stats.Op_join and agg_ms = op t Stats.Op_aggregate in
  [
    ("exec.iteration_ms", Bstat.median t.iteration_ms);
    ("exec.first_iteration_ms", Bstat.median t.first_iteration_ms);
    ("exec.join_ms", per_query join_ms);
    ("exec.aggregate_ms", per_query agg_ms);
    ("exec.project_ms", per_query (op t Stats.Op_project));
    ( "exec.join_ns_per_probe",
      Bstat.ratio (join_ms *. 1e6) (float_of_int c.join_probes) );
    ( "exec.aggregate_ns_per_row",
      Bstat.ratio (agg_ms *. 1e6) (float_of_int c.rows_aggregated) );
    ("exec.filter_ms", per_query (op t Stats.Op_filter));
    ("exec.sort_ms", per_query (op t Stats.Op_sort));
    ("exec.setop_ms", per_query (op t Stats.Op_setop));
    ("exec.distinct_ms", per_query (op t Stats.Op_distinct));
    ( "exec.cache_hit_ratio",
      Bstat.ratio
        (float_of_int c.cache_hits)
        (float_of_int (c.cache_hits + c.cache_misses)) );
    ("delta.restricted_rows", per_query (float_of_int c.restricted_rows));
    ("delta.full_reevals", per_query (float_of_int c.full_reevals));
    ( "delta.restricted_iterations",
      per_query (float_of_int (max 0 (t.delta_steps - c.full_reevals))) );
    ("storage.materialize_ms", per_query t.materialize_ms);
    ("storage.rename_us", Bstat.median t.rename_us);
    ("storage.loop_end_ms", per_query t.loop_end_ms);
    ("storage.rows_materialized", per_query (float_of_int c.rows_materialized));
  ]

(** Base counts behind the ratios, for the report lines. *)
let bases t =
  let c = t.counts in
  Printf.sprintf
    "traced queries %d, iterations %d, join probes %d, rows aggregated %d, \
     cache hits %d of %d lookups, delta_materialize steps %d, full re-evals %d"
    t.queries c.loop_iterations c.join_probes
    c.rows_aggregated c.cache_hits
    (c.cache_hits + c.cache_misses)
    t.delta_steps c.full_reevals

(* ------------------------------------------------------------------ *)
(* Compile and render, timed from outside the engine                   *)

module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Relation = Dbspinner_storage.Relation

(** Microseconds of [Parser.parse_query] and of
    [Iterative_rewrite.compile_with_report] with the catalog's
    statistics, as the engine calls them: medians over 20 calls on
    each query of [sqls]. *)
let compile_probe catalog sqls =
  let reps = 20 in
  let lookup name = Option.map Table.schema (Catalog.find_table_opt catalog name) in
  let statistics =
    {
      Dbspinner_plan.Cost.cardinality_of =
        (fun name -> Option.map Table.cardinality (Catalog.find_table_opt catalog name));
    }
  in
  let parse = ref [] and compile = ref [] in
  List.iter
    (fun sql ->
      for _ = 1 to reps do
        let q, dt = Bstat.time (fun () -> Dbspinner_sql.Parser.parse_query sql) in
        parse := (dt *. 1e6) :: !parse;
        let _, dt =
          Bstat.time (fun () ->
              Dbspinner_rewrite.Iterative_rewrite.compile_with_report ~statistics
                ~lookup q)
        in
        compile := (dt *. 1e6) :: !compile
      done)
    sqls;
  (Bstat.median !parse, Bstat.median !compile)

(** Median microseconds of [Relation.to_table_string] (the server's
    result rendering) over 5 calls on each of [rels]. *)
let render_probe rels =
  let reps = 5 in
  let samples = ref [] in
  List.iter
    (fun rel ->
      for _ = 1 to reps do
        let _, dt = Bstat.time (fun () -> Relation.to_table_string rel) in
        samples := (dt *. 1e6) :: !samples
      done)
    rels;
  Bstat.median !samples
