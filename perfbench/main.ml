(* perfbench: one command for the in-process iterative workloads and
   the server workload. See README.md in this directory.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--server PATH]

   Prints a human-readable report, then as its last line one JSON
   object with [correct], [attempted], [failed] and [metrics]. Exits
   non-zero when any answer fails its check. *)

let usage =
  "main.exe --workload paper-loops|frontier|server-mixed --seed N --seconds S \
   --trace 0|1 [--server PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let server = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--server", Arg.Set_string server, "PATH dbspinner-server binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let outcome =
    match !workload with
    | "paper-loops" -> Inprocess.run Inprocess.paper_loops ~seed ~seconds ~trace
    | "frontier" -> Inprocess.run Inprocess.frontier ~seed ~seconds ~trace
    | "server-mixed" -> Server_mixed.run ~server:!server ~seed ~seconds ~trace
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  List.iter print_endline outcome.Report.lines;
  List.iter (fun e -> print_endline ("CHECK FAILED: " ^ e)) outcome.Report.errors;
  print_endline (Report.result_line ~trace outcome);
  exit (if outcome.Report.errors = [] then 0 else 1)
