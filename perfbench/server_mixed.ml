(* server-mixed: the dbspinner-server binary as a child process, one
   reader and one writer connection in closed loops, each on its own
   thread. *)

module Client = Dbspinner_server.Client
module Session = Dbspinner_server.Session
module Engine = Dbspinner.Engine
module Catalog = Dbspinner_storage.Catalog
module Durable = Dbspinner_durable.Durable
module Graph_gen = Dbspinner_graph.Graph_gen
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Loader = Dbspinner_workload.Loader
open Inputs

(* ------------------------------------------------------------------ *)
(* Expected answers, from the generated edge array and the references *)

let expected_answers g =
  let by_src = Hashtbl.create 4096 in
  Array.iter
    (fun (e : Graph_gen.edge) ->
      Hashtbl.replace by_src e.src
        ((e.dst, e.weight)
        :: Option.value (Hashtbl.find_opt by_src e.src) ~default:[]))
    (Graph_gen.edges g);
  let out src =
    List.sort compare (Option.value (Hashtbl.find_opt by_src src) ~default:[])
  in
  let ranks =
    (Ref_pagerank.run g ~iterations:server_pr_iterations).Ref_pagerank.rank
  in
  let ff =
    Ref_forecast.final ~modulus:2
      (Ref_forecast.run g ~iterations:server_ff_iterations)
  in
  function
  | Lookup src ->
    List.filteri (fun i _ -> i < lookup_limit) (out src)
    |> List.map (fun (d, w) -> Checks.[ I d; F w ])
  | Group lo ->
    List.init 8 (fun i -> lo + i)
    |> List.filter_map (fun src ->
           match out src with
           | [] -> None
           | es ->
             let sum = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 es in
             Some Checks.[ I src; I (List.length es); F sum ])
  | Pr_window lo -> List.init 10 (fun i -> Checks.[ I (lo + i); F ranks.(lo + i) ])
  | Ff_top ->
    List.map (fun (e : Ref_forecast.entry) -> Checks.[ I e.node; F e.friends ]) ff

let read_label = function
  | Lookup _ -> "lookup"
  | Group _ -> "group"
  | Pr_window _ -> "pr"
  | Ff_top -> "ff"

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)

type server = {
  pid : int;
  socket : string;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(** Wait up to 30 seconds for the child to exit, then SIGKILL it and
    reap it. *)
let reap pid =
  let timeout = 30.0 in
  let t0 = Bstat.now () in
  let rec wait () =
    if exited pid then ()
    else if Bstat.now () -. t0 > timeout then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else (Thread.delay 0.005; wait ())
  in
  wait ()

let kill9 s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s.pid

(** Start the server on [dir]/data. With [gen] it preloads dblp-like at
    scale 1 (first boot of a data dir only). *)
let spawn ~binary ~dir ~gen =
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ binary; "--socket"; socket; "--workers"; "2"; "--data-dir";
      Filename.concat dir "data"; "--fsync"; "batch" ]
    @ if gen then [ "--gen"; "dblp-like"; "--scale"; "1" ] else []
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () -> Unix.create_process binary (Array.of_list args) null log log)
  in
  { pid; socket }

(** Connect, retrying for up to 60 seconds while the server boots. *)
let connect s =
  let timeout = 60.0 in
  let t0 = Bstat.now () in
  let rec go () =
    match Client.connect ~seed:1 ~socket_path:s.socket () with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if exited s.pid then failwith "server exited during boot (see server.log)"
      else if Bstat.now () -. t0 > timeout then failwith "server did not boot"
      else (Thread.delay 0.002; go ())
  in
  go ()

let query_exn c sql =
  match Client.query c sql with
  | Ok body -> body
  | Error (status, msg) -> failwith (Printf.sprintf "%s: %s (%s)" status msg sql)

(** Boot a server, answer its first query, and return it with the
    seconds that took. *)
let boot ~binary ~dir ~gen ~first_query =
  let t0 = Bstat.now () in
  let s = spawn ~binary ~dir ~gen in
  match
    let c = connect s in
    (c, query_exn c first_query)
  with
  | c, body -> (s, c, body, Bstat.now () -. t0)
  | exception e ->
    kill9 s;
    raise e

let shutdown s c =
  (try Client.shutdown_server c with _ -> ());
  reap s.pid

(* ------------------------------------------------------------------ *)
(* The closed loops                                                    *)

(** Pin the calling thread to the lowest allowed CPU, or with [true]
    the highest (Linux; false elsewhere). Threads and children inherit
    the pin. The server is spawned from a thread pinned to the highest
    CPU and the reader and writer pin themselves to the lowest, so the
    load generator and the server never share a core: left to migrate,
    they crowded the same core in some runs, and identical runs
    differed up to twofold in every server latency. *)
external pin_cpu : bool -> bool = "perfbench_pin_cpu"

type loops = {
  lat : (string, float list) Hashtbl.t;  (** seconds by class *)
  mutable reads : int;
  mutable writes : int;
  mutable failed : int;
  mutable errors : string list;
  mutable loop_iterations : int;
  mutable wall : float;
  mutable reader_rounds : int;
  mutable writer_rounds : int;
  lock : Mutex.t;
}

let note t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> f t)

let record t cls dt =
  note t (fun t ->
      Hashtbl.replace t.lat cls
        (dt :: Option.value (Hashtbl.find_opt t.lat cls) ~default:[]))

let error t e =
  note t (fun t -> if List.length t.errors < 20 then t.errors <- e :: t.errors)

let samples t cls = Option.value (Hashtbl.find_opt t.lat cls) ~default:[]

(** Whole rounds until [seconds] have passed. *)
let until ~t0 ~seconds f =
  let n = ref 0 in
  while !n = 0 || Bstat.now () -. t0 < seconds do
    f ();
    incr n
  done;
  !n

let reader t ~seconds ~t0 ~stream ~expected c () =
  t.reader_rounds <-
    until ~t0 ~seconds (fun () ->
        List.iter
          (fun r ->
            let sql = read_sql r in
            match Bstat.time (fun () -> Client.query c sql) with
            | Ok body, dt -> (
              record t (read_label r) dt;
              match Checks.rendered ~what:(read_label r ^ " read")
                      ~expected:(expected r) body with
              | Ok () ->
                note t (fun t ->
                    t.reads <- t.reads + 1;
                    t.loop_iterations <-
                      t.loop_iterations
                      + (match r with
                        | Pr_window _ -> server_pr_iterations
                        | Ff_top -> server_ff_iterations
                        | Lookup _ | Group _ -> 0))
              | Error e ->
                note t (fun t -> t.failed <- t.failed + 1);
                error t e)
            | Error (status, msg), _ ->
              note t (fun t -> t.failed <- t.failed + 1);
              error t (Printf.sprintf "%s read: %s %s" (read_label r) status msg))
          (stream ()))

let writer t ~seconds ~t0 ~next ~model c () =
  t.writer_rounds <-
    until ~t0 ~seconds (fun () ->
        for _ = 1 to writes_per_round do
          let w = next model in
          match Bstat.time (fun () -> Client.query c (write_sql w)) with
          | Ok "1 row(s) affected\n", dt ->
            record t "write" dt;
            apply_write model w;
            note t (fun t -> t.writes <- t.writes + 1)
          | Ok body, _ ->
            note t (fun t -> t.failed <- t.failed + 1);
            error t (Printf.sprintf "write %s acknowledged as %S" (write_sql w) body)
          | Error (status, msg), _ ->
            note t (fun t -> t.failed <- t.failed + 1);
            error t (Printf.sprintf "write: %s %s" status msg)
        done)

let run_loops ~seconds ~seed ~g rc wc model =
  let t =
    {
      lat = Hashtbl.create 8; reads = 0; writes = 0; failed = 0; errors = [];
      loop_iterations = 0; wall = 0.0; reader_rounds = 0; writer_rounds = 0;
      lock = Mutex.create ();
    }
  in
  let expected = expected_answers g in
  let stream = reader_stream ~seed ~num_nodes:(Graph_gen.num_nodes g) in
  let next = writer_stream ~seed in
  let t0 = Bstat.now () in
  let guard f () =
    ignore (pin_cpu false);
    try f () with e -> error t (Printexc.to_string e)
  in
  let threads =
    [
      Thread.create (guard (reader t ~seconds ~t0 ~stream ~expected rc)) ();
      Thread.create (guard (writer t ~seconds ~t0 ~next ~model wc)) ();
    ]
  in
  List.iter Thread.join threads;
  t.wall <- Bstat.now () -. t0;
  t

let stat_int stats key =
  Option.value (Option.bind (List.assoc_opt key stats) int_of_string_opt) ~default:0

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let boots = 15

type live = {
  loops : loops;
  setup_s : float;
  peak_rss_mb : float;
  stats_before : (string * string) list;
  stats_after : (string * string) list;
  ping_us : float list;
  recovery_s : float;
}

(** Boot [boots] times (the median is [setup_s]), keep the last server
    up, run the loops, check the writer's table, SIGKILL the server,
    restart it from its data dir and check the table again. *)
let live ~binary ~dir ~seed ~seconds ~g ~errors =
  let first_query = "SELECT COUNT(*) AS n FROM edges" in
  let edges_expected = Checks.[ [ I (Graph_gen.num_edges g) ] ] in
  let check what expected body =
    match Checks.rendered ~what ~expected body with
    | Ok () -> ()
    | Error e -> errors := e :: !errors
  in
  let boot_times = ref [] and last = ref None in
  for i = 1 to boots do
    rm_rf (Filename.concat dir "data");
    let s, c, body, dt = boot ~binary ~dir ~gen:true ~first_query in
    check "first query" edges_expected body;
    boot_times := dt :: !boot_times;
    if i < boots then shutdown s c else last := Some (s, c)
  done;
  let s, rc = Option.get !last in
  Fun.protect ~finally:(fun () -> if not (exited s.pid) then kill9 s) (fun () ->
      let wc = connect s in
      ignore (query_exn wc writer_ddl);
      let ping_us =
        List.init 200 (fun _ -> 1e6 *. snd (Bstat.time (fun () -> Client.ping rc)))
      in
      let model = Hashtbl.create 64 in
      let stats_before = Client.stats rc in
      let loops = run_loops ~seconds ~seed ~g rc wc model in
      let stats_after = Client.stats rc in
      (match Checks.writer_table ~what:"writer table" ~model
               (query_exn rc writer_select) with
      | Ok () -> ()
      | Error e -> errors := e :: !errors);
      let peak_rss_mb = Bstat.peak_rss_mb ~pid:(string_of_int s.pid) () in
      Client.close rc;
      Client.close wc;
      kill9 s;
      let s2, c2, body, recovery_s =
        boot ~binary ~dir ~gen:false ~first_query:writer_select
      in
      Fun.protect ~finally:(fun () -> if not (exited s2.pid) then kill9 s2)
        (fun () ->
          (match Checks.writer_table ~what:"writer table after SIGKILL" ~model body with
          | Ok () -> ()
          | Error e -> errors := e :: !errors);
          check "edges after SIGKILL" edges_expected (query_exn c2 first_query);
          shutdown s2 c2);
      {
        loops;
        setup_s = Bstat.median !boot_times;
        peak_rss_mb;
        stats_before;
        stats_after;
        ping_us;
        recovery_s;
      })

(* ------------------------------------------------------------------ *)
(* In-process replay for the traced run                                *)

type replay = {
  layers : Layers.t;
  session_ms : float list;  (** untraced [Session.run_script] per read *)
  traced_ms : float list;
  publish_us : float list;
  log_us : float list;
  gc_minor : float;
  gc_major : float;
  gc_majors : int;
  parse_us : float;
  compile_us : float;
  render_us : float;
}

(** Replay the reader's and the writer's statements in this process,
    the way the server runs them: reads pinned to the latest published
    snapshot through [Session.run_script] (once untraced, once
    traced); each write followed by [Catalog.publish] and
    [Durable.log_script] on a scratch data dir with the same fsync
    policy. *)
let replay ~dir ~seed ~seconds ~g ~errors =
  let engine = Engine.create () in
  Loader.load_graph engine g;
  ignore (Engine.execute engine writer_ddl);
  let shared = Engine.catalog engine in
  ignore (Catalog.publish shared);
  let options = Engine.options engine in
  let rs = Session.create ~id:1 ~options ~shared_catalog:shared in
  let ws = Session.create ~id:2 ~options ~shared_catalog:shared in
  let durable =
    Durable.attach ~dir:(Filename.concat dir "replay") ~policy:Durable.Batch
      ~catalog:shared ~replay:(fun _ -> ())
  in
  let expected = expected_answers g in
  let stream = reader_stream ~seed ~num_nodes:(Graph_gen.num_nodes g) in
  let next = writer_stream ~seed in
  let model = Hashtbl.create 64 in
  let layers = Layers.create () in
  let session_ms = ref [] and traced_ms = ref [] in
  let publish_us = ref [] and log_us = ref [] in
  let minor = ref 0.0 and major = ref 0.0 and majors = ref 0 in
  let first_round = ref [] in
  let pinned f =
    Session.pin rs (Catalog.snapshot shared);
    Fun.protect ~finally:(fun () -> Session.unpin rs) f
  in
  let read r =
    let sql = read_sql r in
    pinned (fun () ->
        let g0 = Gc.quick_stat () in
        let body, dt = Bstat.time (fun () -> Session.run_script rs sql) in
        let d = Bstat.gc_delta g0 (Gc.quick_stat ()) in
        minor := !minor +. d.Bstat.minor_words;
        major := !major +. d.Bstat.major_words;
        majors := !majors + d.Bstat.major_collections;
        session_ms := (dt *. 1000.0) :: !session_ms;
        (match Checks.rendered ~what:(read_label r ^ " replay") ~expected:(expected r) body with
        | Ok () -> ()
        | Error e -> errors := e :: !errors);
        let _, dt =
          Bstat.time (fun () ->
              Layers.traced layers (Session.engine rs) (fun () ->
                  Session.run_script rs sql))
        in
        traced_ms := (dt *. 1000.0) :: !traced_ms)
  in
  let write w =
    let sql = write_sql w in
    if Session.run_script ws sql = "1 row(s) affected\n" then apply_write model w;
    let _, dt = Bstat.time (fun () -> Catalog.publish shared) in
    publish_us := (dt *. 1e6) :: !publish_us;
    let digest = Catalog.base_digest shared in
    let (), dt = Bstat.time (fun () -> Durable.log_script durable ~digest ~sql) in
    log_us := (dt *. 1e6) :: !log_us
  in
  let t0 = Bstat.now () in
  Fun.protect ~finally:(fun () -> Durable.close durable) (fun () ->
      ignore
        (until ~t0 ~seconds (fun () ->
             let round = stream () in
             if !first_round = [] then first_round := round;
             List.iter read round;
             for _ = 1 to writes_per_round do
               write (next model)
             done)));
  (match
     Checks.writer_table ~what:"writer table replay" ~model
       (Session.run_script rs writer_select)
   with
  | Ok () -> ()
  | Error e -> errors := e :: !errors);
  let sqls = List.sort_uniq compare (List.map read_sql !first_round) in
  let parse_us, compile_us = Layers.compile_probe shared sqls in
  let rels =
    pinned (fun () ->
        List.map (fun sql -> Engine.query (Session.engine rs) sql) sqls)
  in
  {
    layers;
    session_ms = !session_ms;
    traced_ms = !traced_ms;
    publish_us = !publish_us;
    log_us = !log_us;
    gc_minor = !minor;
    gc_major = !major;
    gc_majors = !majors;
    parse_us;
    compile_us;
    render_us = Layers.render_probe rels;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let ms x = 1000.0 *. x

let lines (l : live) =
  let t = l.loops in
  let short = samples t "lookup" @ samples t "group" in
  let loop = samples t "pr" @ samples t "ff" in
  let writes = samples t "write" in
  let delta key = stat_int l.stats_after key - stat_int l.stats_before key in
  [
    Printf.sprintf
      "server-mixed: %d reader rounds, %d writer rounds, %d reads, %d writes, \
       %d failed, wall %.3f s, setup %.4f s (median of %d boots), restart \
       after SIGKILL %.4f s"
      t.reader_rounds t.writer_rounds t.reads t.writes t.failed t.wall l.setup_s
      boots l.recovery_s;
    Printf.sprintf "  short_read_p50_ms %.4f  short_read_p99_ms %.4f  (n=%d)"
      (ms (Bstat.median short)) (ms (Bstat.percentile 99.0 short))
      (List.length short);
    Printf.sprintf "  loop_read_p50_ms %.4f  pr %.4f  ff %.4f  (n=%d)"
      (ms (Bstat.median loop)) (ms (Bstat.median (samples t "pr")))
      (ms (Bstat.median (samples t "ff"))) (List.length loop);
    Printf.sprintf "  write_p50_ms %.4f  write_p99_ms %.4f  (n=%d)"
      (ms (Bstat.median writes)) (ms (Bstat.percentile 99.0 writes))
      (List.length writes);
    Printf.sprintf
      "  STATS deltas: plan_hits %d plan_misses %d wal_records %d wal_bytes %d \
       wal_fsyncs %d checkpoints %d; ping median %.1f us"
      (delta "plan_hits") (delta "plan_misses") (delta "wal_records")
      (delta "wal_bytes") (delta "wal_fsyncs") (delta "checkpoints")
      (Bstat.median l.ping_us);
  ]

let end_to_end (l : live) =
  let t = l.loops in
  let median_ms cls = ms (Bstat.median (samples t cls)) in
  [
    ("setup_s", l.setup_s);
    ("peak_rss_mb", l.peak_rss_mb);
    ("loop_query_ms", Bstat.geomean (List.map median_ms [ "pr"; "ff" ]));
    ("iterations_per_s", Bstat.ratio (float_of_int t.loop_iterations) t.wall);
    ("ops_per_s", Bstat.ratio (float_of_int (t.reads + t.writes)) t.wall);
    (* One median per class, so that no class outweighs another by
       its sample count and a slower write always moves the metric. *)
    ( "op_p50_ms",
      Bstat.geomean (List.map median_ms [ "lookup"; "group"; "pr"; "ff"; "write" ]) );
  ]

let per_layer (l : live) (r : replay) =
  let t = l.loops in
  let delta key =
    float_of_int (stat_int l.stats_after key - stat_int l.stats_before key)
  in
  let writes = float_of_int (max 1 t.writes) in
  let reads =
    List.concat_map (samples t) [ "lookup"; "group"; "pr"; "ff" ]
  in
  let session_ms = Bstat.mean r.session_ms in
  let q = float_of_int (max 1 (List.length r.session_ms)) in
  [
    ("sql.parse_us", r.parse_us);
    ("rewrite.compile_us", r.compile_us);
    ("server.ping_rtt_us", Bstat.median l.ping_us);
    ("server.session_ms", session_ms);
    ("server.wait_ms", ms (Bstat.mean reads) -. session_ms);
    ( "server.plan_cache_hit_ratio",
      Bstat.ratio (delta "plan_hits") (delta "plan_hits" +. delta "plan_misses") );
    ("storage.publish_us", Bstat.median r.publish_us);
    ("durable.log_us", Bstat.median r.log_us);
    ("durable.wal_bytes_per_write", delta "wal_bytes" /. writes);
    ("durable.fsyncs_per_write", delta "wal_fsyncs" /. writes);
    ("storage.render_us", r.render_us);
    ("gc.minor_words_per_query", r.gc_minor /. q);
    ("gc.major_words_per_query", r.gc_major /. q);
    ("gc.major_collections_per_query", float_of_int r.gc_majors /. q);
    ("gc.top_heap_mb", Bstat.top_heap_mb ());
    ( "trace.overhead_pct",
      100.0
      *. Bstat.ratio
           (List.fold_left ( +. ) 0.0 r.traced_ms -. List.fold_left ( +. ) 0.0 r.session_ms)
           (List.fold_left ( +. ) 0.0 r.session_ms) );
  ]
  @ Layers.metrics r.layers

(** Scratch space inside the working directory: the server's socket,
    data dir and log, removed at the end. *)
let scratch_dir () =
  let root = ".bench_tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "server-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let run ~server ~seed ~seconds ~trace : Report.outcome =
  if server = "" || not (Sys.file_exists server) then
    failwith "server-mixed needs --server PATH to the dbspinner-server binary";
  let dir = scratch_dir () in
  ignore (pin_cpu true);
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let g = server_graph () in
      let errors = ref [] in
      let live_seconds = if trace then seconds /. 2.0 else seconds in
      let l = live ~binary:server ~dir ~seed ~seconds:live_seconds ~g ~errors in
      let metrics, extra =
        if trace then
          let r = replay ~dir ~seed ~seconds:(seconds /. 2.0) ~g ~errors in
          (per_layer l r, [ "  replay " ^ Layers.bases r.layers ])
        else (end_to_end l, [])
      in
      {
        Report.attempted = l.loops.reads + l.loops.writes + l.loops.failed;
        failed = l.loops.failed;
        errors = List.rev !errors @ List.rev l.loops.errors;
        metrics;
        lines = lines l @ extra;
      })
