(* Verifiers for every answer the benchmark receives. Each compares the
   engine's output with a computation made apart from the engine (the
   reference implementations in [Dbspinner_graph], Dijkstra, the
   generated edge array, or the writer's own model) and returns
   [Error why] on the first disagreement. *)

module Value = Dbspinner_storage.Value
module Relation = Dbspinner_storage.Relation
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast

type outcome = (unit, string) result

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(** Relative closeness; exact equality passes (covers zeros). *)
let close ~rel a b =
  a = b || Float.abs (a -. b) <= rel *. Float.max (Float.abs a) (Float.abs b)

(** In-process answers must match the references to 1e-9 relative. *)
let exact_rel = 1e-9

(** The server renders floats with 6 significant digits, so rendered
    answers are compared to 1e-5 relative. *)
let rendered_rel = 1e-5

let rec first_error = function
  | [] -> Ok ()
  | (lazy (Ok ())) :: rest -> first_error rest
  | (lazy (Error _ as e)) :: _ -> e

(** Every row's node appears once, and [n] rows in all. *)
let node_rows ~what ~n rel f : outcome =
  if Relation.cardinality rel <> n then
    fail "%s: %d rows, expected %d" what (Relation.cardinality rel) n
  else
    let seen = Hashtbl.create n in
    let rows = Relation.rows rel in
    let rec go i =
      if i = Array.length rows then Ok ()
      else
        let row = rows.(i) in
        let node = Value.to_int row.(0) in
        if Hashtbl.mem seen node then fail "%s: node %d twice" what node
        else begin
          Hashtbl.replace seen node ();
          match f node row with Ok () -> go (i + 1) | e -> e
        end
    in
    go 0

(** [(Node, Rank)] rows of a PR or PR-VS run against the reference
    state after the same number of iterations. *)
let pagerank ~what ~(reference : Ref_pagerank.state) rel : outcome =
  let n = Array.length reference.Ref_pagerank.rank in
  node_rows ~what ~n rel (fun node row ->
      let got = Value.to_float row.(1) in
      let want = reference.Ref_pagerank.rank.(node) in
      if close ~rel:exact_rel got want then Ok ()
      else fail "%s: node %d rank %.17g, expected %.17g" what node got want)

(** [(Node, Distance, Delta)] rows of an SSSP or SSSP-VS run: equal to
    the reference iteration and never below the true shortest
    distance. *)
let sssp ~what ~(reference : Ref_sssp.state) ~dijkstra rel : outcome =
  let n = Array.length reference.Ref_sssp.distance in
  node_rows ~what ~n rel (fun node row ->
      let dist = Value.to_float row.(1) and delta = Value.to_float row.(2) in
      let want_dist = reference.Ref_sssp.distance.(node)
      and want_delta = reference.Ref_sssp.delta.(node) in
      let best = Float.min dist delta in
      if not (close ~rel:exact_rel dist want_dist) then
        fail "%s: node %d distance %.17g, expected %.17g" what node dist
          want_dist
      else if not (close ~rel:exact_rel delta want_delta) then
        fail "%s: node %d delta %.17g, expected %.17g" what node delta
          want_delta
      else if best < dijkstra.(node) *. (1.0 -. exact_rel) then
        fail "%s: node %d distance %.17g below shortest path %.17g" what node
          best dijkstra.(node)
      else Ok ())

(** A converged SSSP: [min(Distance, Delta)] is the shortest distance
    on every node. *)
let converged ~what ~dijkstra rel : outcome =
  node_rows ~what ~n:(Array.length dijkstra) rel (fun node row ->
      let best = Float.min (Value.to_float row.(1)) (Value.to_float row.(2)) in
      if close ~rel:exact_rel best dijkstra.(node) then Ok ()
      else
        fail "%s: node %d distance %.17g, shortest path %.17g" what node best
          dijkstra.(node))

(** Generic ordered comparison of [(node, value)] pairs. *)
let ordered_pairs ~what ~rel_tol ~(expected : (int * float) list)
    (got : (int * float) list) : outcome =
  if List.length got <> List.length expected then
    fail "%s: %d rows, expected %d" what (List.length got)
      (List.length expected)
  else
    first_error
      (List.mapi
         (fun i ((gn, gv), (en, ev)) ->
           lazy
             (if gn <> en then
                fail "%s: row %d is node %d, expected node %d" what i gn en
              else if not (close ~rel:rel_tol gv ev) then
                fail "%s: node %d value %.17g, expected %.17g" what gn gv ev
              else Ok ()))
         (List.combine got expected))

let forecast_pairs entries =
  List.map (fun (e : Ref_forecast.entry) -> (e.node, e.friends)) entries

(** FF top-N rows [(node, friends)] in the query's order. *)
let forecast ~what ~(expected : Ref_forecast.entry list) rel : outcome =
  let got =
    Array.to_list
      (Array.map
         (fun row -> (Value.to_int row.(0), Value.to_float row.(1)))
         (Relation.rows rel))
  in
  ordered_pairs ~what ~rel_tol:exact_rel ~expected:(forecast_pairs expected) got

(* ------------------------------------------------------------------ *)
(* Rendered server answers                                             *)

(** Data rows of one table rendered by [Relation.to_table_string]:
    the cells of every [| ... |] line after the header. Returns
    [Error] when the text is not such a table. *)
let parse_table text : (string list list, string) result =
  let lines = String.split_on_char '\n' text in
  let cells line =
    let inner = String.sub line 1 (String.length line - 2) in
    List.map String.trim (String.split_on_char '|' inner)
  in
  let row_lines =
    List.filter
      (fun l -> String.length l >= 2 && l.[0] = '|' && l.[String.length l - 1] = '|')
      lines
  in
  match row_lines with
  | [] -> Error (Printf.sprintf "not a rendered table: %S" text)
  | _header :: rows ->
    if List.exists (fun l -> String.starts_with ~prefix:"(" l
                             && String.ends_with ~suffix:"more rows)" l) lines
    then Error "rendered table was truncated"
    else Ok (List.map cells rows)

let float_cell s = float_of_string_opt s
let int_cell s = int_of_string_opt s

(** Compare parsed rows with expected rows cell by cell: a cell whose
    expected value is a float is compared to [rendered_rel]; every
    other cell must match exactly. *)
type cell = I of int | F of float

let cell_matches want got =
  match want with
  | I i -> int_cell got = Some i
  | F f -> (
    match float_cell got with
    | Some g -> close ~rel:rendered_rel g f
    | None -> false)

let show_cell = function I i -> string_of_int i | F f -> Printf.sprintf "%.9g" f

let rendered ~what ~(expected : cell list list) text : outcome =
  match parse_table text with
  | Error e -> fail "%s: %s" what e
  | Ok rows ->
    if List.length rows <> List.length expected then
      fail "%s: %d rows, expected %d" what (List.length rows)
        (List.length expected)
    else
      first_error
        (List.mapi
           (fun i (got, want) ->
             lazy
               (if List.length got <> List.length want then
                  fail "%s: row %d has %d cells, expected %d" what i
                    (List.length got) (List.length want)
                else if List.for_all2 cell_matches want got then Ok ()
                else
                  fail "%s: row %d is [%s], expected [%s]" what i
                    (String.concat ", " got)
                    (String.concat ", " (List.map show_cell want))))
           (List.combine rows expected))

(** The writer's table [(k, v)] ordered by [k] against the writer's
    model of its acknowledged writes. *)
let writer_table ~what ~(model : (int, int) Hashtbl.t) text : outcome =
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort compare
    |> List.map (fun (k, v) -> [ I k; I v ])
  in
  rendered ~what ~expected text
