(* Tests of the benchmark's verifiers: each must accept the engine's
   answer on a small graph and reject a deliberately wrong one. *)

module Value = Dbspinner_storage.Value
module Relation = Dbspinner_storage.Relation
module Graph_gen = Dbspinner_graph.Graph_gen
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader
module Engine = Dbspinner.Engine

let failures = ref 0

let report what = function
  | true -> Printf.printf "ok    %s\n" what
  | false ->
    incr failures;
    Printf.printf "FAIL  %s\n" what

let accepts what outcome =
  report (what ^ ": accepts the right answer")
    (match outcome with
    | Ok () -> true
    | Error e ->
      print_endline ("      " ^ e);
      false)

let rejects what outcome =
  report (what ^ ": rejects a wrong answer") (Result.is_error outcome)

(** [rel] with row [i] replaced by [f row]. *)
let with_row rel i f =
  Relation.make (Relation.schema rel)
    (Array.mapi
       (fun j r -> if j = i then f (Array.copy r) else r)
       (Relation.rows rel))

let without_row rel i =
  Relation.make (Relation.schema rel)
    (Array.of_list
       (List.filteri (fun j _ -> j <> i) (Array.to_list (Relation.rows rel))))

let set_float col by row =
  row.(col) <- Value.Float by;
  row

let float_at rel i col = Value.to_float (Relation.rows rel).(i).(col)

let graph = Graph_gen.power_law ~seed:5 ~num_nodes:200 ~edges_per_node:3
let status_seed = 11
let engine = Loader.engine_for ~status_seed graph
let active = Graph_gen.vertex_status_array ~seed:status_seed graph
let dijkstra = Ref_sssp.dijkstra graph ~source:0
let n = 8

let test_pagerank () =
  let rel = Engine.query engine (Queries.pr ~iterations:n ()) in
  let check = Checks.pagerank ~what:"PR" ~reference:(Ref_pagerank.run graph ~iterations:n) in
  accepts "PR" (check rel);
  let r = float_at rel 3 1 in
  rejects "PR rank perturbed by 1e-6" (check (with_row rel 3 (set_float 1 (r *. (1.0 +. 1e-6)))));
  rejects "PR row missing" (check (without_row rel 0));
  let vs = Engine.query engine (Queries.pr_vs ~iterations:n ()) in
  accepts "PR-VS"
    (Checks.pagerank ~what:"PR-VS"
       ~reference:(Ref_pagerank.run_vs graph ~active ~iterations:n) vs);
  rejects "PR-VS against the PR reference" (check vs)

let test_sssp () =
  let rel = Engine.query engine (Queries.sssp ~source:0 ~iterations:n ()) in
  let check =
    Checks.sssp ~what:"SSSP" ~dijkstra
      ~reference:(Ref_sssp.run graph ~source:0 ~iterations:n)
  in
  accepts "SSSP" (check rel);
  (* A reached node: its distance is finite. *)
  let rows = Relation.rows rel in
  let i =
    let rec find i =
      if Value.to_float rows.(i).(1) < Ref_sssp.infinity_sentinel then i
      else find (i + 1)
    in
    find 0
  in
  let d = float_at rel i 1 in
  rejects "SSSP distance off by one" (check (with_row rel i (set_float 1 (d +. 1.0))));
  rejects "SSSP distance below Dijkstra"
    (check (with_row rel i (fun row -> set_float 2 (d -. 1.0) (set_float 1 (d -. 1.0) row))));
  let vs = Engine.query engine (Queries.sssp_vs ~source:0 ~iterations:n ()) in
  accepts "SSSP-VS"
    (Checks.sssp ~what:"SSSP-VS" ~dijkstra
       ~reference:(Ref_sssp.run ~active graph ~source:0 ~iterations:n) vs)

let test_converged () =
  let g = Graph_gen.chain_with_fanin ~seed:3 ~num_nodes:60 ~shortcut_every:10 ~upstream:6 ~fanout:5 in
  let e = Loader.engine_for ~with_vertex_status:false g in
  let rel = Engine.query e Inputs.frontier_query in
  let dijkstra = Ref_sssp.dijkstra g ~source:0 in
  let check = Checks.converged ~what:"frontier" ~dijkstra in
  accepts "frontier" (check rel);
  let rows = Relation.rows rel in
  let i =
    let rec find i =
      if Value.to_int rows.(i).(0) = 30 then i else find (i + 1)
    in
    find 0
  in
  let best = Float.min (float_at rel i 1) (float_at rel i 2) in
  rejects "frontier distance off by one"
    (check (with_row rel i (fun row -> set_float 2 (best +. 1.0) (set_float 1 (best +. 1.0) row))));
  let short = Engine.query e (Queries.sssp ~source:0 ~iterations:3 ()) in
  rejects "frontier before convergence" (check short)

let test_forecast () =
  let rel = Engine.query engine (Queries.ff ~modulus:2 ~iterations:n ()) in
  let check =
    Checks.forecast ~what:"FF"
      ~expected:(Ref_forecast.final ~modulus:2 (Ref_forecast.run graph ~iterations:n))
  in
  accepts "FF" (check rel);
  let f = float_at rel 0 1 in
  rejects "FF forecast perturbed" (check (with_row rel 0 (set_float 1 (f *. 1.001))));
  let rows = Array.copy (Relation.rows rel) in
  let r0 = rows.(0) in
  rows.(0) <- rows.(1);
  rows.(1) <- r0;
  rejects "FF rows out of order" (check (Relation.make (Relation.schema rel) rows))

let test_rendered () =
  let rel =
    Engine.query engine
      "SELECT src, COUNT(*) AS n, SUM(weight) AS w FROM edges WHERE src < 5 GROUP BY src ORDER BY src"
  in
  let expected =
    List.init 5 Fun.id
    |> List.filter_map (fun src ->
           let es =
             List.filter (fun (e : Graph_gen.edge) -> e.src = src)
               (Array.to_list (Graph_gen.edges graph))
           in
           if es = [] then None
           else
             Some
               Checks.
                 [
                   I src;
                   I (List.length es);
                   F (List.fold_left (fun a (e : Graph_gen.edge) -> a +. e.weight) 0.0 es);
                 ])
  in
  let text = Relation.to_table_string rel in
  accepts "rendered aggregate" (Checks.rendered ~what:"agg" ~expected text);
  let wrong =
    List.mapi
      (fun i row ->
        if i = 0 then
          List.map (function Checks.F f -> Checks.F (f +. 1.0) | c -> c) row
        else row)
      expected
  in
  rejects "rendered aggregate with a wrong sum" (Checks.rendered ~what:"agg" ~expected:wrong text);
  let all = Engine.query engine "SELECT src, dst FROM edges" in
  rejects "truncated rendering"
    (Checks.rendered ~what:"edges" ~expected:[] (Relation.to_table_string all))

let test_writer_table () =
  let e = Engine.create () in
  ignore (Engine.execute e Inputs.writer_ddl);
  let model = Hashtbl.create 8 in
  List.iter
    (fun w ->
      ignore (Engine.execute e (Inputs.write_sql w));
      Inputs.apply_write model w)
    Inputs.[ Insert (1, 10); Insert (2, 20); Insert (3, 30); Update (2, 21); Delete 1 ];
  let table () =
    Relation.to_table_string (Engine.query e Inputs.writer_select)
  in
  let check = Checks.writer_table ~what:"writer" ~model in
  accepts "writer table" (check (table ()));
  ignore (Engine.execute e "INSERT INTO bench_w VALUES (9, 90)");
  rejects "writer table with an extra row" (check (table ()));
  ignore (Engine.execute e "DELETE FROM bench_w WHERE k = 9");
  ignore (Engine.execute e "DELETE FROM bench_w WHERE k = 3");
  rejects "writer table with a missing row" (check (table ()));
  ignore (Engine.execute e "INSERT INTO bench_w VALUES (3, 31)");
  rejects "writer table with a changed value" (check (table ()))

let () =
  test_pagerank ();
  test_sssp ();
  test_converged ();
  test_forecast ();
  test_rendered ();
  test_writer_table ();
  if !failures > 0 then begin
    Printf.printf "%d check test(s) failed\n" !failures;
    exit 1
  end
