(* The metric catalogue and the result line. The names and units here
   are the ones BENCHMARK.json declares; every run prints all of the
   end-to-end metrics (untraced run) or all of the per-layer metrics
   (traced run). *)

(** End-to-end metrics: name, unit. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("loop_query_ms", "ms");
    ("iterations_per_s", "it/s");
    ("ops_per_s", "ops/s");
    ("op_p50_ms", "ms");
  ]

(** Per-layer metrics: name, unit. A workload that does not exercise
    a layer lists its metrics with [not_exercised]. *)
let per_layer =
  [
    ("sql.parse_us", "us");
    ("rewrite.compile_us", "us");
    ("server.ping_rtt_us", "us");
    ("server.session_ms", "ms");
    ("server.wait_ms", "ms");
    ("server.plan_cache_hit_ratio", "ratio");
    ("storage.publish_us", "us");
    ("durable.log_us", "us");
    ("durable.wal_bytes_per_write", "bytes");
    ("durable.fsyncs_per_write", "count");
    ("exec.iteration_ms", "ms");
    ("exec.first_iteration_ms", "ms");
    ("exec.join_ms", "ms");
    ("exec.aggregate_ms", "ms");
    ("exec.project_ms", "ms");
    ("exec.join_ns_per_probe", "ns");
    ("exec.aggregate_ns_per_row", "ns");
    ("exec.filter_ms", "ms");
    ("exec.sort_ms", "ms");
    ("exec.setop_ms", "ms");
    ("exec.distinct_ms", "ms");
    ("exec.cache_hit_ratio", "ratio");
    ("delta.restricted_rows", "rows");
    ("delta.full_reevals", "count");
    ("delta.restricted_iterations", "count");
    ("storage.materialize_ms", "ms");
    ("storage.rename_us", "us");
    ("storage.loop_end_ms", "ms");
    ("storage.rows_materialized", "rows");
    ("storage.render_us", "us");
    ("gc.minor_words_per_query", "words");
    ("gc.major_words_per_query", "words");
    ("gc.major_collections_per_query", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_pct", "%");
  ]

(** Metrics of layers a workload does not exercise: they read 0. *)
let not_exercised names = List.map (fun name -> (name, 0.0)) names

(** What one workload run hands back. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** failed checks; empty when every answer is right *)
  metrics : (string * float) list;
  lines : string list;  (** human-readable report, printed before the result *)
}

(** A JSON number with all its digits; 0 for NaN and infinities. *)
let number x =
  if not (Float.is_finite x) then "0.0"
  else if Float.is_integer x then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** The last line of standard output: one JSON object with the
    declared metrics of the run's mode, in catalogue order. Fails when
    the outcome lacks a declared metric or carries an undeclared one. *)
let result_line ~trace (o : outcome) =
  let catalogue = if trace then per_layer else end_to_end in
  let missing =
    List.filter (fun (name, _) -> not (List.mem_assoc name o.metrics)) catalogue
  and undeclared =
    List.filter (fun (name, _) -> not (List.mem_assoc name catalogue)) o.metrics
  in
  if missing <> [] || undeclared <> [] then
    failwith
      (Printf.sprintf "metrics missing: [%s]; undeclared: [%s]"
         (String.concat "; " (List.map fst missing))
         (String.concat "; " (List.map fst undeclared)));
  let metric (name, unit) =
    let v = List.assoc name o.metrics in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
      (number v) (json_string unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.errors = []) o.attempted o.failed
    (String.concat ", " (List.map metric catalogue))
