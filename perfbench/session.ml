(* One session process: open the persisted heap, answer the first
   command, then run a closed-loop segment of the command stream (one
   client: each command starts when the previous one has returned).

   Untraced sessions go through [Lsdb_shell.Shell.execute], the entry
   point lsdb-browse wraps, journalling shell mutations the way
   lsdb-browse does. Traced sessions go through {!Traced} instead and
   record a span around every layer call. *)

open Lsdb
module Shell = Lsdb_shell.Shell
module Persistent = Lsdb_storage.Persistent
module Log = Lsdb_storage.Log
module Metrics = Lsdb_obs.Metrics

(* Deliberate faults, one per correctness check, so a test can show that
   each check counts a wrong answer or closure as a failure. *)
type inject =
  | Failing_read  (* the first session read is replaced by a malformed query *)
  | Lost_write  (* the first write is not executed; its verifying read still runs *)
  | Wrong_engine_answer  (* one sampled answer is altered before the engine comparison *)
  | Wrong_closure  (* the recompute runs on a copy holding one extra fact *)
  | Traced_mismatch  (* one recorded digest is altered before the reference comparison *)

type config = {
  dir : string;
  mode : Database.closure_mode;
  ops : Gen.op array;
  first : int;  (* index of the first command after open (a read) *)
  start : int;  (* index of the session's first operation *)
  stop : int;  (* the session never runs past this index *)
  count : int;  (* session operations to run *)
  traced : bool;
  check_dir : string option;
      (* a pristine copy of the heap: sampled reads are answered again
         there under the other closure engine *)
  check_closure : bool;
  reference : (int, string) Hashtbl.t;  (* op index ↦ digest of an untraced run *)
  inject : inject option;
  spans_out : string option;
}

type record = {
  index : int;
  label : string;  (* read kind, or "write" *)
  started : float;  (* Spans.now () when the operation began *)
  latency : float;  (* seconds *)
  mutable failed : bool;
  digest : string;
}

type result = {
  opening : float;  (* Spans.now () when the open began *)
  open_s : float;
  first_answer : record;
  records : record array;  (* session ops, first answer excluded *)
  session_s : float;
  peak_rss_mb : float;
  checks : int;  (* whole-run checks made (closure recompute) *)
  checks_failed : int;
  layers : (string * float) list;  (* traced runs only *)
  pace : (float * float) list;  (* Pace probes taken through the run *)
}

let now = Spans.now

(* Persistent.sync after every this many writes. *)
let sync_every = 16

(* Reads of a session answered again under the other engine. *)
let check_samples = 6

(* ---- correctness predicates ------------------------------------------ *)

(* A read failed if the shell reported an error, a rejection or a
   governor trip instead of an answer. *)
let read_failed output =
  List.exists
    (fun line ->
      List.exists
        (fun prefix -> String.starts_with ~prefix line)
        [ "error: "; "parse error: "; "warning: "; "(cancelled after"; "unknown command";
          "no such entity: "; "unknown entity"; "rejected:" ]
      ||
      let marker = "): no such database entity" in
      let n = String.length marker and l = String.length line in
      l >= n && String.sub line (l - n) n = marker)
    (String.split_on_char '\n' output)

(* An answer as a multiset of lines: the engines may enumerate in
   different orders (demand answers come in Fact.compare order). The
   "(new names: …)" line reports whether the parser had seen a name
   before, which depends on the commands run earlier, not on the answer. *)
let answer_lines output =
  String.split_on_char '\n' output
  |> List.filter (fun l -> not (String.starts_with ~prefix:"(new names:" l))
  |> List.sort String.compare

let closures_equal a b =
  Closure.cardinal a = Closure.cardinal b
  && Seq.for_all (fun f -> Closure.mem b f) (Closure.to_seq a)

let digest s = Digest.to_hex (Digest.string s)

let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ---- opening the heap ------------------------------------------------- *)

let snapshot_file dir = Filename.concat dir "snapshot.lsdb"
let log_file dir = Filename.concat dir "log.lsdb"

(* The steps of Persistent.open_dir on a clean store (snapshot, then the
   log tail stamped with the snapshot's epoch), one span each. *)
let traced_open sp dir =
  Spans.span sp "storage.open" @@ fun () ->
  let data =
    match Lsdb_storage.Vfs.read_file Lsdb_storage.Vfs.real (snapshot_file dir) with
    | Some data -> data
    | None -> failwith ("no snapshot in " ^ dir)
  in
  let epoch, db =
    Spans.span sp "storage.snapshot_decode" (fun () ->
        Lsdb_storage.Snapshot.decode_full data)
  in
  let read =
    Spans.span sp "storage.log_read" (fun () -> Log.read_log ~mode:`Strict (log_file dir))
  in
  if read.Log.header_epoch <> Some epoch then failwith "log epoch does not match snapshot";
  Spans.span sp "storage.log_apply" (fun () -> List.iter (Log.apply db) read.Log.ops);
  (db, Log.open_ ~epoch (log_file dir))

(* lsdb-browse's journal callback *)
let journal_of p db = function
  | Shell.Inserted f ->
      let s, r, t = Fact.names (Database.symtab db) f in
      Persistent.journal p (Log.Insert (s, r, t))
  | Shell.Removed f ->
      let s, r, t = Fact.names (Database.symtab db) f in
      Persistent.journal p (Log.Remove (s, r, t))
  | Shell.Rule_included name -> Persistent.journal p (Log.Include_rule name)
  | Shell.Rule_excluded name -> Persistent.journal p (Log.Exclude_rule name)
  | Shell.Limit_set n -> Persistent.journal p (Log.Set_limit n)

(* ---- counters read at the session boundaries ------------------------- *)

let counter ?labels name = Metrics.counter_value (Metrics.counter ?labels name)

type counters = {
  fused : int;
  comp_paths : int;
  comp_expansions : int;
  comp_truncated : int;
  waves : int;
  attempted : int;
  succeeded : int;
  log_bytes : int;
  cache : Match_layer.cache_stats;
  extensions : int;
  retractions : int;
  minor_words : float;
  major : int;
}

let read_counters db =
  let dir d = counter ~labels:[ ("direction", d) ] "lsdb_composition_expansions_total" in
  {
    fused = counter "lsdb_eval_fused_intersections_total";
    comp_paths = counter "lsdb_composition_paths_total";
    comp_expansions = dir "forward" + dir "backward";
    comp_truncated = counter "lsdb_composition_truncated_total";
    waves = counter "lsdb_probing_waves_total";
    attempted = counter "lsdb_probing_broadenings_attempted_total";
    succeeded = counter "lsdb_probing_broadenings_succeeded_total";
    log_bytes = counter "lsdb_log_bytes_written_total";
    cache = Match_layer.cache_stats_for db;
    extensions = Database.closure_extensions db;
    retractions = Database.closure_retractions db;
    minor_words = Gc.minor_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
  }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- the session ------------------------------------------------------ *)

let run cfg =
  let sp = Spans.create () in
  let pc = Pace.create () in
  Pace.burst pc;
  let t0 = now () in
  let opened = ref 0. in
  let db, exec, sync, close, tr =
    if cfg.traced then begin
      let db, log = traced_open sp cfg.dir in
      opened := now ();
      Database.set_closure_mode db cfg.mode;
      let tr = Traced.create db sp log in
      ( db,
        Traced.execute tr,
        (fun () -> Traced.sync tr),
        (fun () ->
          Log.sync log;
          Log.close log),
        Some tr )
    end
    else begin
      let p = Persistent.open_dir cfg.dir in
      opened := now ();
      let db = Persistent.database p in
      Database.set_closure_mode db cfg.mode;
      let shell = Shell.create ~journal:(journal_of p db) db in
      (db, Shell.execute shell, (fun () -> Persistent.sync p), (fun () -> Persistent.close p), None)
    end
  in
  let open_s = !opened -. t0 in
  Pace.burst pc;
  let base_facts = Database.base_cardinal db in
  let writes = ref 0 in
  let samples = ref [] in
  let sample_every = max 1 (cfg.count / check_samples) in
  let injected = ref false in
  let inject_once kind =
    if (not !injected) && cfg.inject = Some kind then begin
      injected := true;
      true
    end
    else false
  in
  let root i f =
    if cfg.traced then begin
      Spans.set_cmd sp i;
      Spans.span sp "shell" f
    end
    else f ()
  in
  let run_op i op =
    match op with
    | Gen.Read (k, cmd) ->
        let cmd = if i <> cfg.first && inject_once Failing_read then "q (" else cmd in
        let start = now () in
        let out = root i (fun () -> exec cmd) in
        let latency = now () -. start in
        if cfg.check_dir <> None && i >= cfg.start && (i - cfg.start) mod sample_every = 0 then
          samples := (i, cmd, out) :: !samples;
        { index = i; label = Gen.kind_name k; started = start; latency; failed = read_failed out;
          digest = digest out }
    | Gen.Write { write; expect_write; verify; expect } ->
        let lost = inject_once Lost_write in
        let start = now () in
        let w, v =
          root i (fun () ->
              let w = if lost then expect_write ^ "\n" else exec write in
              incr writes;
              if !writes mod sync_every = 0 then sync ();
              (w, exec verify))
        in
        let latency = now () -. start in
        { index = i; label = "write"; started = start; latency;
          failed = w <> expect_write ^ "\n" || v <> expect ^ "\n";
          digest = digest (w ^ v) }
  in
  (* The first command after open: in eager mode it forces the closure. *)
  let first_answer = run_op cfg.first cfg.ops.(cfg.first) in
  Pace.burst pc;
  let closure_stats =
    if cfg.traced && cfg.mode = Database.Eager then
      let c = Database.closure db in
      Some (Closure.cardinal c, Closure.derived_count c, Closure.rounds c)
    else None
  in
  Option.iter Traced.reset_counts tr;
  let c1 = read_counters db in
  let records = ref [] in
  if cfg.start + cfg.count > cfg.stop then failwith "segment too short for the session";
  for i = cfg.start to cfg.start + cfg.count - 1 do
    records := run_op i cfg.ops.(i) :: !records;
    Pace.tick pc
  done;
  if cfg.count > 0 then Pace.burst pc;
  let c2 = read_counters db in
  let peak_rss_mb = vm_hwm_mb () in
  let records = Array.of_list (List.rev !records) in
  let session_s = Array.fold_left (fun acc r -> acc +. r.latency) 0. records in
  (* Demand statistics and the layer metrics are read here, at the end of
     the session, before any check below touches the database. *)
  let layers =
    if not cfg.traced then []
    else
      let in_session (s : Spans.span) = s.cmd >= 0 && s.cmd <> cfg.first in
      let all = Spans.self_times sp in
      let session = Spans.self_times ~keep:in_session sp in
      let self ?(tbl = all) name = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
      let session_time = Spans.root_time ~keep:in_session sp in
      let accounted = Hashtbl.fold (fun _ v acc -> acc +. v) session 0. in
      if Float.abs (accounted -. session_time) > 1e-6 *. float_of_int (Array.length records + 1)
      then failwith "span self times do not account for the traced session";
      let reads = Array.fold_left (fun a r -> if r.label <> "write" then a + 1 else a) 0 records in
      let nwrites = Array.length records - reads in
      let ops = max 1 (Array.length records) in
      let demand =
        match Database.demand_stats db with
        | Some s -> s
        | None ->
            { Lsdb_datalog.Magic.goals = 0; memo_hits = 0; memo_misses = 0; magic_patterns = 0;
              activations = 0; base_facts = 0; stage_cone_facts = 0; full_cone_facts = 0;
              deltas = 0 }
      in
      let cfacts, cderived, crounds = Option.value ~default:(0, 0, 0) closure_stats in
      let d f = f c2 - f c1 in
      let hits = c2.cache.Match_layer.hits - c1.cache.Match_layer.hits in
      let misses = c2.cache.Match_layer.misses - c1.cache.Match_layer.misses in
      [
        ("storage.snapshot_decode_s", self "storage.snapshot_decode");
        ("storage.log_read_s", self "storage.log_read");
        ("storage.log_apply_s", self "storage.log_apply");
        ("storage.us_per_fact_open", 1e6 *. open_s /. float_of_int (max 1 base_facts));
        ("storage.journal_s", self "storage.journal");
        ("storage.log_bytes_per_write", ratio (d (fun c -> c.log_bytes)) nwrites);
        ("storage.sync_s", self "storage.sync");
        ("closure.compute_s", self "closure.compute");
        ("closure.facts", float_of_int cfacts);
        ("closure.derived", float_of_int cderived);
        ("closure.rounds", float_of_int crounds);
        ( "closure.minor_bytes_per_fact",
          (match tr with Some tr -> tr.Traced.compute_minor_words | None -> 0.)
          *. float_of_int (Sys.word_size / 8) /. float_of_int (max 1 cfacts) );
        ("closure.maintain_s", self "closure.maintain");
        ("closure.extensions", float_of_int (d (fun c -> c.extensions)));
        ("closure.retractions", float_of_int (d (fun c -> c.retractions)));
        ("closure.support_size", float_of_int (Database.support_size db));
        ( "demand.cone_facts",
          float_of_int (demand.stage_cone_facts + demand.full_cone_facts) );
        ( "demand.memo_hit_ratio",
          ratio demand.memo_hits (demand.memo_hits + demand.memo_misses) );
        ("demand.deltas", float_of_int demand.deltas);
        ("demand.activations", float_of_int demand.activations);
        ("demand.magic_patterns", float_of_int demand.magic_patterns);
        ("parse.s", self ~tbl:session "parse");
        ("eval.s", self ~tbl:session "eval");
        ( "eval.candidates_per_row",
          match tr with
          | Some tr -> ratio tr.Traced.eval_candidates tr.Traced.eval_rows
          | None -> 0. );
        ("eval.fused_intersections", float_of_int (d (fun c -> c.fused)));
        ("match.cache_hit_ratio", ratio hits (hits + misses));
        ( "match.cache_evictions",
          float_of_int (c2.cache.Match_layer.evictions - c1.cache.Match_layer.evictions) );
        ("navigation.neighborhood_s", self ~tbl:session "navigation.neighborhood");
        ("navigation.render_s", self ~tbl:session "navigation.render");
        ( "navigation.bytes_per_cmd",
          match tr with Some tr -> ratio tr.Traced.render_bytes reads | None -> 0. );
        ("composition.search_s", self ~tbl:session "composition.search");
        ("composition.paths", float_of_int (d (fun c -> c.comp_paths)));
        ("composition.expansions", float_of_int (d (fun c -> c.comp_expansions)));
        ("composition.truncated", float_of_int (d (fun c -> c.comp_truncated)));
        ("probing.probe_s", self ~tbl:session "probing.probe");
        ("probing.waves", float_of_int (d (fun c -> c.waves)));
        ("probing.attempted", float_of_int (d (fun c -> c.attempted)));
        ("probing.success_ratio", ratio (d (fun c -> c.succeeded)) (d (fun c -> c.attempted)));
        ("probing.broadness_s", self ~tbl:session "probing.broadness");
        ("integrity.insert_checked_s", self ~tbl:session "integrity.insert_checked");
        ("shell.self_s", self ~tbl:session "shell");
        ( "gc.minor_mb_per_cmd",
          (c2.minor_words -. c1.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6
          /. float_of_int ops );
        ("gc.major_collections", float_of_int (c2.major - c1.major));
        ("trace.session_s", session_time);
      ]
  in
  (* Check: the incrementally maintained closure equals a from-scratch
     recompute. *)
  let checks, checks_failed =
    if cfg.check_closure then begin
      let maintained = Database.closure db in
      let copy = Database.copy db in
      if inject_once Wrong_closure then
        ignore (Database.insert_names copy "PERFBENCH-X" "CITES" "PERFBENCH-Y");
      Database.invalidate copy;
      (1, if closures_equal maintained (Database.closure copy) then 0 else 1)
    end
    else (0, 0)
  in
  (* Check: a traced run's answers equal the untraced run's. *)
  if Hashtbl.length cfg.reference > 0 then
    Array.iter
      (fun r ->
        match Hashtbl.find_opt cfg.reference r.index with
        | Some d ->
            let d = if inject_once Traced_mismatch then d ^ "x" else d in
            if d <> r.digest then r.failed <- true
        | None -> r.failed <- true)
      (Array.append [| first_answer |] records);
  close ();
  Option.iter (Spans.write sp) cfg.spans_out;
  (* Check: sampled answers are the same under the other engine (eager
     closure vs. demand magic sets share no fixpoint code), on a fresh
     open of the heap the sampled reads ran against. *)
  (match cfg.check_dir with
  | Some dir ->
      let p = Persistent.open_dir dir in
      let other = Persistent.database p in
      Database.set_closure_mode other
        (match cfg.mode with Database.Eager -> Database.Demand | Database.Demand -> Database.Eager);
      let shell = Shell.create other in
      List.iter
        (fun (i, cmd, out) ->
          let out = if inject_once Wrong_engine_answer then out ^ "x" else out in
          if answer_lines (Shell.execute shell cmd) <> answer_lines out then
            Array.iter (fun r -> if r.index = i then r.failed <- true) records)
        !samples;
      Persistent.close p
  | _ -> ());
  { opening = t0; open_s; first_answer; records; session_s; peak_rss_mb; checks; checks_failed;
    layers; pace = Pace.samples pc }

(* Operations and whole-run checks that failed. *)
let failures r =
  Array.fold_left (fun a x -> if x.failed then a + 1 else a) 0 r.records
  + (if r.first_answer.failed then 1 else 0)
  + r.checks_failed
