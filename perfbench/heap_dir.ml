(* The persisted heap directory the benchmark opens. *)

module Persistent = Lsdb_storage.Persistent

let composition_limit = 3

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Persist the heap: about nine tenths into the snapshot (written by
   Persistent.compact), the rest into the log tail every open replays. *)
let persist ~seed (h : Gen.heap) dir =
  rm_rf dir;
  let p = Persistent.open_dir dir in
  Persistent.set_limit p composition_limit;
  let tail = Gen.tail_mask ~seed h in
  Array.iteri
    (fun i (s, r, t) -> if not tail.(i) then ignore (Persistent.insert_names p s r t))
    h.Gen.facts;
  Persistent.compact p;
  Array.iteri
    (fun i (s, r, t) -> if tail.(i) then ignore (Persistent.insert_names p s r t))
    h.Gen.facts;
  Persistent.close p

(* A file-by-file copy of a heap directory (it holds no subdirectories). *)
let copy src dst =
  rm_rf dst;
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)
