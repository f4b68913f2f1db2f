(* Every input the benchmark feeds the engine or the server, made from
   the workload seed. The same seed gives the same graphs, statements
   and write sequence. *)

module Graph_gen = Dbspinner_graph.Graph_gen
module Datasets = Dbspinner_graph.Datasets
module Queries = Dbspinner_workload.Queries

(* ------------------------------------------------------------------ *)
(* paper-loops                                                         *)

(** Iterations of every paper query. *)
let paper_iterations = 25

(** dblp-like at scale 4: 12,680 nodes, 3 edges per node. *)
let paper_nodes = Datasets.dblp_like.Datasets.nodes * 4

let paper_graph ~seed =
  Graph_gen.power_law ~seed ~num_nodes:paper_nodes
    ~edges_per_node:Datasets.dblp_like.Datasets.edges_per_node

(** Seed of the vertexStatus draw (10% inactive), shared by the loader
    and the PR-VS / SSSP-VS references. *)
let status_seed ~seed = (seed * 7919) + 7

(** The five paper queries, in the order one round runs them. *)
let paper_queries =
  let n = paper_iterations in
  [
    ("pr", Queries.pr ~iterations:n ());
    ("pr_vs", Queries.pr_vs ~iterations:n ());
    ("sssp", Queries.sssp ~source:0 ~iterations:n ());
    ("sssp_vs", Queries.sssp_vs ~source:0 ~iterations:n ());
    ("ff", Queries.ff ~modulus:2 ~iterations:n ());
  ]

(* ------------------------------------------------------------------ *)
(* frontier                                                            *)

(** Seed of the chain core. The core fixes how many iterations SSSP
    needs to converge (139 here), so only the fan-in varies with the
    run seed and every seed does the same amount of work. Its head,
    the source, has no in-edge: from a source with an in-edge the
    query's Delta column never settles and [UNTIL DELTA = 0] does not
    terminate (about one seed in six of [chain_with_fanin]). *)
let frontier_core_seed = 7

let frontier_core_nodes = 4000

(** [Graph_gen.chain_with_fanin] with 4,000 chain nodes (a shortcut
    every 10) and 400 upstream nodes of 220 fan-in edges each
    (4,400 nodes, 92,399 edges): the chain from
    [frontier_core_seed], the fan-in from [seed]. *)
let frontier_graph ~seed =
  let make seed =
    Graph_gen.chain_with_fanin ~seed ~num_nodes:frontier_core_nodes
      ~shortcut_every:10 ~upstream:400 ~fanout:220
  in
  let core = make frontier_core_seed and fanin = make seed in
  let part keep (g : Graph_gen.t) =
    List.filter (fun (e : Graph_gen.edge) -> keep (e.src < frontier_core_nodes))
      (Array.to_list g.Graph_gen.edges)
  in
  {
    fanin with
    Graph_gen.edges = Array.of_list (part Fun.id core @ part not fanin);
  }

(** Replace the first occurrence of [sub] in [s] by [by]. *)
let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then invalid_arg ("replace_once: no " ^ sub)
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

(** SSSP from node 0, run until no row changes. *)
let frontier_query =
  replace_once ~sub:"UNTIL 1 ITERATIONS" ~by:"UNTIL DELTA = 0"
    (Queries.sssp ~source:0 ~iterations:1 ())

(* ------------------------------------------------------------------ *)
(* server-mixed                                                        *)

(** What [dbspinner-server --gen dblp-like --scale 1] preloads. *)
let server_graph () = Datasets.generate ~scale:1.0 Datasets.dblp_like

let server_pr_iterations = 3
let server_ff_iterations = 25

type read =
  | Lookup of int  (** the first [lookup_limit] edges of one [src] *)
  | Group of int  (** per-[src] count and weight sum over 8 sources *)
  | Pr_window of int  (** PR over 3 iterations, ranks of 10 nodes *)
  | Ff_top  (** FF top-10 *)

(** Rows a point lookup returns at most; below the server's 50-row
    rendering cut-off. *)
let lookup_limit = 20

let read_sql = function
  | Lookup src ->
    Printf.sprintf
      "SELECT dst, weight FROM edges WHERE src = %d ORDER BY dst, weight \
       LIMIT %d"
      src lookup_limit
  | Group lo ->
    Printf.sprintf
      "SELECT src, COUNT(*) AS n, SUM(weight) AS w FROM edges WHERE src >= \
       %d AND src < %d GROUP BY src ORDER BY src"
      lo (lo + 8)
  | Pr_window lo ->
    Queries.pr ~iterations:server_pr_iterations
      ~final:
        (Printf.sprintf
           "SELECT Node, Rank FROM PageRank WHERE Node >= %d AND Node < %d \
            ORDER BY Node"
           lo (lo + 10))
      ()
  | Ff_top -> Queries.ff ~modulus:2 ~iterations:server_ff_iterations ()

let is_loop = function Pr_window _ | Ff_top -> true | Lookup _ | Group _ -> false

(** The reader's stream of rounds. Every round has the same shape: 10
    short reads (8 point lookups, 2 grouped aggregates), one PR, 10
    more short reads, one FF. Keys are drawn from the seed. *)
let reader_stream ~seed ~num_nodes =
  let rng = Random.State.make [| seed; 17 |] in
  let short () =
    List.init 10 (fun i ->
        if i mod 5 = 4 then Group (Random.State.int rng (num_nodes - 8))
        else Lookup (Random.State.int rng num_nodes))
  in
  fun () ->
    let first = short () in
    let pr = Pr_window (Random.State.int rng (num_nodes - 10)) in
    let second = short () in
    first @ [ pr ] @ second @ [ Ff_top ]

(** The writer's table, owned by the writer connection. *)
let writer_table = "bench_w"

let writer_ddl =
  Printf.sprintf "CREATE TABLE %s (k INT, v INT, PRIMARY KEY (k))" writer_table

let writer_select = Printf.sprintf "SELECT k, v FROM %s ORDER BY k" writer_table

(** Keys the writer cycles over: the table never exceeds this many
    rows, so one rendered SELECT shows all of it. *)
let writer_keys = 32

type write =
  | Insert of int * int
  | Update of int * int
  | Delete of int

let write_sql = function
  | Insert (k, v) ->
    Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" writer_table k v
  | Update (k, v) ->
    Printf.sprintf "UPDATE %s SET v = %d WHERE k = %d" writer_table v k
  | Delete k -> Printf.sprintf "DELETE FROM %s WHERE k = %d" writer_table k

(** Writes per writer round. *)
let writes_per_round = 10

(** The writer's stream: a seeded generator that picks a key and, from
    the model of acknowledged writes, an insert when the key is absent
    or else an update (two in three) or a delete. *)
let writer_stream ~seed =
  let rng = Random.State.make [| seed; 29 |] in
  fun (model : (int, int) Hashtbl.t) ->
    let k = Random.State.int rng writer_keys in
    let v = Random.State.int rng 1_000_000 in
    if not (Hashtbl.mem model k) then Insert (k, v)
    else if Random.State.int rng 3 < 2 then Update (k, v)
    else Delete k

(** Apply an acknowledged write to the model. *)
let apply_write model = function
  | Insert (k, v) | Update (k, v) -> Hashtbl.replace model k v
  | Delete k -> Hashtbl.remove model k
