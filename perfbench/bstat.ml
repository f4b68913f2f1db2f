(* Timing and summary statistics shared by every workload. *)

let now = Unix.gettimeofday

(** [time f] runs [f ()] and returns its result with the elapsed
    wall seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort Float.compare xs

(** Median; 0.0 on an empty list. *)
let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile, [p] in (0, 100]; 0.0 on an empty list. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Geometric mean of positive values; 0.0 on an empty list. *)
let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(** Ratio that reads 0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(** A [/proc/<pid>/status] field in kB (VmHWM, VmRSS, ...); 0 when the
    file or the field is missing. *)
let status_kb ?(pid = "self") field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.starts_with ~prefix line -> (
        let rest = String.sub line (String.length prefix)
            (String.length line - String.length prefix) in
        match String.split_on_char ' ' (String.trim rest) with
        | kb :: _ -> Option.value (int_of_string_opt kb) ~default:0
        | [] -> 0)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(** Peak resident set of a process in MB (VmHWM). *)
let peak_rss_mb ?pid () = float_of_int (status_kb ?pid "VmHWM") /. 1024.0

(** Garbage-collector work between two [Gc.quick_stat] readings. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  major_collections : int;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

(** Largest size the major heap reached, in MB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)
