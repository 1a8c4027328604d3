(* The benchmark's worker program. perfbench/run.py drives it:

     main.exe setup   --seed S --n N --dir D --reps K --stream F --length L
                      --draw zipf|uniform --writes-every K --pace-out F
     main.exe session --dir D --stream F --mode eager|demand --segment I/P
                      --count C [--trace] [--check-dir D] [--check-closure]
                      [--reference F] [--spans F] --ops-out F --pace-out F

   [setup] generates the seeded heap K times, persisting it each time as
   a snapshot (written by Persistent.compact) plus a log tail, and writes
   the command stream. [session] opens the heap and runs one segment of
   the stream (see Session). Both print one JSON object as their last
   line and write the Pace probes they took to --pace-out; [session]
   also writes one line per operation to --ops-out. *)

open Lsdb
open Perfbench
module Persistent = Lsdb_storage.Persistent

let write_lines path ops =
  let oc = open_out path in
  Array.iter (fun op -> output_string oc (Gen.to_line op ^ "\n")) ops;
  close_out oc

let write_pace path samples =
  let oc = open_out path in
  List.iter (fun (t, d) -> Printf.fprintf oc "%.9f\t%.9f\n" t d) samples;
  close_out oc

let setup ~seed ~n ~dir ~reps ~stream ~length ~draw ~writes_every ~pace_out =
  let pc = Pace.create () in
  let times =
    List.init reps (fun _ ->
        Gc.compact ();
        Pace.burst pc;
        let t0 = Spans.now () in
        let h = Gen.heap ~seed ~n in
        Heap_dir.persist ~seed h dir;
        let t1 = Spans.now () in
        Pace.burst pc;
        (t0, t1 -. t0, h))
  in
  write_pace pace_out (Pace.samples pc);
  let _, _, h = List.hd times in
  let ops = Gen.stream ~seed h ~length ~draw ~writes_every in
  write_lines stream ops;
  let p = Persistent.open_dir dir in
  let base = Database.base_cardinal (Persistent.database p) in
  Persistent.close p;
  let field f = String.concat ", " (List.map (fun x -> Printf.sprintf "%.9f" (f x)) times) in
  Printf.printf "{\"setup_s\": [%s], \"setup_started\": [%s], \"base_facts\": %d}\n"
    (field (fun (_, d, _) -> d)) (field (fun (t, _, _) -> t)) base

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let session ~dir ~stream ~mode ~segment ~parts ~count ~traced ~check_dir ~check_closure
    ~reference ~spans ~ops_out ~pace_out =
  let load path = Array.of_list (List.map Gen.of_line (read_lines path)) in
  let ops = load stream in
  let len = Array.length ops in
  let start = segment * len / parts in
  let stop = (segment + 1) * len / parts in
  (* Every process answers the same first command, the stream's first
     nav, and then runs its own segment. *)
  let rec first i =
    if i >= len then failwith "stream holds no nav"
    else match ops.(i) with Gen.Read (Gen.Nav, _) -> i | _ -> first (i + 1)
  in
  let first = first 0 in
  let start = if start <= first then first + 1 else start in
  let digests = Hashtbl.create 1024 in
  Option.iter
    (fun path ->
      List.iter
        (fun line ->
          match String.split_on_char '\t' line with
          | [ i; _; _; _; _; d ] -> Hashtbl.replace digests (int_of_string i) d
          | _ -> failwith ("malformed reference line: " ^ line))
        (read_lines path))
    reference;
  let r =
    Session.run
      {
        Session.dir; mode; ops; first; start; stop; count; traced;
        check_dir; check_closure; reference = digests; inject = None;
        spans_out = spans;
      }
  in
  let oc = open_out ops_out in
  let emit (x : Session.record) =
    Printf.fprintf oc "%d\t%s\t%.3f\t%.9f\t%d\t%s\n" x.index x.label (x.latency *. 1e6)
      x.started (if x.failed then 1 else 0) x.digest
  in
  emit r.first_answer;
  Array.iter emit r.records;
  close_out oc;
  write_pace pace_out r.pace;
  let failed = Session.failures r in
  Printf.printf
    "{\"opening\": %.9f, \"open_s\": %s, \"first_answer_s\": %s, \"session_ops\": %d, \"session_s\": %s, \
     \"peak_rss_mb\": %s, \"attempted\": %d, \"failed\": %d, \"layers\": {%s}}\n"
    r.opening (json_float r.open_s)
    (json_float r.first_answer.latency)
    (Array.length r.records) (json_float r.session_s) (json_float r.peak_rss_mb)
    (Array.length r.records + 1 + r.checks)
    failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) r.layers))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let opt name default =
    let rec find = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let req name =
    match opt name "" with "" -> failwith ("missing " ^ name) | v -> v
  in
  let flag name = List.mem name args in
  match args with
  | "setup" :: _ ->
      setup ~seed:(int_of_string (req "--seed")) ~n:(int_of_string (req "--n"))
        ~dir:(req "--dir")
        ~reps:(int_of_string (opt "--reps" "1"))
        ~stream:(req "--stream")
        ~length:(int_of_string (req "--length"))
        ~draw:(match req "--draw" with "zipf" -> `Zipf | _ -> `Uniform)
        ~writes_every:(int_of_string (opt "--writes-every" "0"))
        ~pace_out:(req "--pace-out")
  | "session" :: _ ->
      let segment, parts =
        Scanf.sscanf (opt "--segment" "0/1") "%d/%d" (fun a b -> (a, b))
      in
      session ~dir:(req "--dir") ~stream:(req "--stream")
        ~mode:(match req "--mode" with "eager" -> Database.Eager | _ -> Database.Demand)
        ~segment ~parts
        ~count:(int_of_string (req "--count"))
        ~traced:(flag "--trace")
        ~check_dir:(match opt "--check-dir" "" with "" -> None | d -> Some d)
        ~check_closure:(flag "--check-closure")
        ~reference:(match opt "--reference" "" with "" -> None | f -> Some f)
        ~spans:(match opt "--spans" "" with "" -> None | f -> Some f)
        ~ops_out:(req "--ops-out") ~pace_out:(req "--pace-out")
  | _ ->
      prerr_endline "usage: main.exe (setup|session) …";
      exit 2
