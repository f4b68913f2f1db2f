(* The two in-process workloads, paper-loops and frontier: one engine,
   one thread, a closed loop of whole rounds of iterative queries
   through [Engine.query]. *)

module Engine = Dbspinner.Engine
module Relation = Dbspinner_storage.Relation
module Graph_gen = Dbspinner_graph.Graph_gen
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Loader = Dbspinner_workload.Loader

(** One query kind of a round, with the check of its answer. *)
type kind = {
  name : string;  (** report name; its median latency prints as [<name>_s] *)
  sql : string;
  check : Relation.t -> Checks.outcome;
}

(** A loaded engine and the round it runs. *)
type setup = {
  engine : Engine.t;
  kinds : kind list;
}

(** A workload: how to generate and load its graph (timed as set-up),
    and the round of queries with their references (made after). *)
type workload = {
  label : string;
  load : seed:int -> Graph_gen.t * Engine.t;
  round : seed:int -> Graph_gen.t -> kind list;
}

(** The five paper queries on dblp-like at scale 4, checked against
    the reference implementations with the loader's vertex statuses. *)
let paper_loops =
  let load ~seed =
    let g = Inputs.paper_graph ~seed in
    (g, Loader.engine_for ~status_seed:(Inputs.status_seed ~seed) g)
  in
  let round ~seed g =
    let n = Inputs.paper_iterations in
    let active =
      Graph_gen.vertex_status_array ~seed:(Inputs.status_seed ~seed) g
    in
    let dijkstra = Ref_sssp.dijkstra g ~source:0 in
    let checks =
      [
        ( "pr",
          Checks.pagerank ~what:"PR" ~reference:(Ref_pagerank.run g ~iterations:n) );
        ( "pr_vs",
          Checks.pagerank ~what:"PR-VS"
            ~reference:(Ref_pagerank.run_vs g ~active ~iterations:n) );
        ( "sssp",
          Checks.sssp ~what:"SSSP" ~dijkstra
            ~reference:(Ref_sssp.run g ~source:0 ~iterations:n) );
        ( "sssp_vs",
          Checks.sssp ~what:"SSSP-VS" ~dijkstra
            ~reference:(Ref_sssp.run ~active g ~source:0 ~iterations:n) );
        ( "ff",
          Checks.forecast ~what:"FF"
            ~expected:
              (Ref_forecast.final ~modulus:2 (Ref_forecast.run g ~iterations:n)) );
      ]
    in
    List.map
      (fun (name, sql) -> { name; sql; check = List.assoc name checks })
      Inputs.paper_queries
  in
  { label = "paper-loops"; load; round }

(** SSSP to convergence on the chain with fan-in; every node must end
    at its Dijkstra distance. *)
let frontier =
  let load ~seed =
    let g = Inputs.frontier_graph ~seed in
    (g, Loader.engine_for ~with_vertex_status:false g)
  in
  let round ~seed:_ g =
    let dijkstra = Ref_sssp.dijkstra g ~source:0 in
    [
      {
        name = "converge";
        sql = Inputs.frontier_query;
        check = Checks.converged ~what:"frontier SSSP" ~dijkstra;
      };
    ]
  in
  { label = "frontier"; load; round }

(** Set-ups timed for [setup_s]; the median is reported. *)
let setup_repeats = 15

(** Time [setup_repeats] generations and loads, keep the last, then
    build the round and its references. *)
let timed_setup w ~seed =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_repeats do
    let loaded, dt = Bstat.time (fun () -> w.load ~seed) in
    times := dt :: !times;
    last := Some loaded
  done;
  let g, engine = Option.get !last in
  Gc.compact ();
  ({ engine; kinds = w.round ~seed g }, Bstat.median !times)

type run_state = {
  latencies : (string, float list) Hashtbl.t;  (** seconds, by kind *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable busy : float;  (** seconds inside [Engine.query] *)
  mutable iterations : int;
}

let record st name dt =
  let l = Option.value (Hashtbl.find_opt st.latencies name) ~default:[] in
  Hashtbl.replace st.latencies name (dt :: l)

(** Run one query of [kind], check it, and account for it: a query
    that raises or whose answer fails its check counts as failed.
    [wrap] lets the traced run fold the call into its layer
    accounting. *)
let run_one ?(wrap = fun f -> f ()) st s kind =
  st.attempted <- st.attempted + 1;
  let it0 = (Engine.session_stats s.engine).Dbspinner_exec.Stats.loop_iterations in
  match Bstat.time (fun () -> wrap (fun () -> Engine.query s.engine kind.sql)) with
  | exception e ->
    st.failed <- st.failed + 1;
    st.errors <- Printf.sprintf "%s failed: %s" kind.name (Printexc.to_string e)
                 :: st.errors;
    None
  | rel, dt ->
    record st kind.name dt;
    st.busy <- st.busy +. dt;
    st.iterations <-
      st.iterations
      + (Engine.session_stats s.engine).Dbspinner_exec.Stats.loop_iterations - it0;
    (match kind.check rel with
    | Ok () -> ()
    | Error e ->
      st.failed <- st.failed + 1;
      if not (List.mem e st.errors) then st.errors <- e :: st.errors);
    Some (rel, dt)

let new_state () =
  { latencies = Hashtbl.create 8; attempted = 0; failed = 0; errors = []; busy = 0.0;
    iterations = 0 }

(** Whole rounds until [seconds] have passed. *)
let rounds ~seconds f =
  let t0 = Bstat.now () in
  let n = ref 0 in
  while !n = 0 || Bstat.now () -. t0 < seconds do
    f ();
    incr n
  done;
  !n

let summary_lines ~workload st s ~rounds ~setup_s =
  let per_kind =
    List.map
      (fun k ->
        let l = Option.value (Hashtbl.find_opt st.latencies k.name) ~default:[] in
        Printf.sprintf "  %s_s  median %.4f  min %.4f  max %.4f  (n=%d)" k.name
          (Bstat.median l)
          (List.fold_left Float.min infinity l)
          (List.fold_left Float.max 0.0 l)
          (List.length l))
      s.kinds
  in
  (Printf.sprintf "%s: %d rounds, %d queries, %d failed, setup %.4f s (median of %d)"
     workload rounds st.attempted st.failed setup_s setup_repeats)
  :: per_kind

(** The untraced run: end-to-end metrics. *)
let measure ~workload ~seconds (s, setup_s) : Report.outcome =
  let st = new_state () in
  let n = rounds ~seconds (fun () -> List.iter (fun k -> ignore (run_one st s k)) s.kinds) in
  let medians_ms =
    List.map
      (fun k ->
        1000.0
        *. Bstat.median (Option.value (Hashtbl.find_opt st.latencies k.name) ~default:[]))
      s.kinds
  in
  let completed = float_of_int (st.attempted - st.failed) in
  {
    Report.attempted = st.attempted;
    failed = st.failed;
    errors = List.rev st.errors;
    metrics =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", Bstat.peak_rss_mb ());
        ("loop_query_ms", Bstat.geomean medians_ms);
        ("iterations_per_s", Bstat.ratio (float_of_int st.iterations) st.busy);
        ("ops_per_s", Bstat.ratio completed st.busy);
        (* Every operation here is a loop query, so the geometric mean
           of the per-kind medians is loop_query_ms again. *)
        ("op_p50_ms", Bstat.geomean medians_ms);
      ];
    lines = summary_lines ~workload st s ~rounds:n ~setup_s;
  }

(** The traced run: each query runs untraced, then traced, so the two
    program times compare on the same work. *)
let measure_traced ~workload ~seconds (s, setup_s) : Report.outcome =
  let st = new_state () in
  let layers = Layers.create () in
  let untraced = ref 0.0 and traced = ref 0.0 in
  let minor = ref 0.0 and major = ref 0.0 and majors = ref 0 and gc_queries = ref 0 in
  let results = ref [] in
  let n =
    rounds ~seconds (fun () ->
        List.iter
          (fun k ->
            let g0 = Gc.quick_stat () in
            (match run_one st s k with
            | Some (rel, dt) ->
              let d = Bstat.gc_delta g0 (Gc.quick_stat ()) in
              minor := !minor +. d.Bstat.minor_words;
              major := !major +. d.Bstat.major_words;
              majors := !majors + d.Bstat.major_collections;
              incr gc_queries;
              untraced := !untraced +. dt;
              if List.length !results < List.length s.kinds then
                results := rel :: !results
            | None -> ());
            match run_one ~wrap:(Layers.traced layers s.engine) st s k with
            | Some (_, dt) -> traced := !traced +. dt
            | None -> ())
          s.kinds)
  in
  let parse_us, compile_us =
    Layers.compile_probe (Engine.catalog s.engine) (List.map (fun k -> k.sql) s.kinds)
  in
  let q = float_of_int (max 1 !gc_queries) in
  {
    Report.attempted = st.attempted;
    failed = st.failed;
    errors = List.rev st.errors;
    metrics =
      [
        ("sql.parse_us", parse_us);
        ("rewrite.compile_us", compile_us);
        ("storage.render_us", Layers.render_probe !results);
        ("gc.minor_words_per_query", !minor /. q);
        ("gc.major_words_per_query", !major /. q);
        ("gc.major_collections_per_query", float_of_int !majors /. q);
        ("gc.top_heap_mb", Bstat.top_heap_mb ());
        ("trace.overhead_pct", 100.0 *. Bstat.ratio (!traced -. !untraced) !untraced);
      ]
      @ Report.not_exercised
          [ "server.ping_rtt_us"; "server.session_ms"; "server.wait_ms";
            "server.plan_cache_hit_ratio"; "storage.publish_us"; "durable.log_us";
            "durable.wal_bytes_per_write"; "durable.fsyncs_per_write" ]
      @ Layers.metrics layers;
    lines =
      [
        List.hd (summary_lines ~workload st s ~rounds:n ~setup_s);
        "  " ^ Layers.bases layers;
      ];
  }

let run w ~seed ~seconds ~trace =
  let setup = timed_setup w ~seed in
  if trace then measure_traced ~workload:w.label ~seconds setup
  else measure ~workload:w.label ~seconds setup
