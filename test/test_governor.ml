(* The query governor: budget trips, cooperative cancellation, partial-
   result soundness across pool sizes and closure modes, storage retry,
   and federation degradation. *)

open Lsdb
open Testutil
module Governor = Lsdb_exec.Governor
module Metrics = Lsdb_obs.Metrics

let counter_value ?labels name = Metrics.counter_value (Metrics.counter ?labels name)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let trip_reason f = match f () with () -> None | exception Governor.Trip r -> Some r

(* ------------------------------------------------------------------ *)
(* Unit behavior of the token itself                                   *)

let unit_tests =
  [
    test "work budget trips Work_budget, stickily" (fun () ->
        let gov = Governor.create ~max_work:10 () in
        Alcotest.(check bool) "untripped at first" true (Governor.tripped gov = None);
        let r = trip_reason (fun () -> Governor.tick (Some gov) 100) in
        Alcotest.(check bool) "tripped work" true (r = Some Governor.Work_budget);
        (* Sticky: any later checkpoint re-raises the recorded reason,
           even where another budget would also have tripped. *)
        let r = trip_reason (fun () -> Governor.check (Some gov)) in
        Alcotest.(check bool) "sticky on check" true (r = Some Governor.Work_budget);
        let r = trip_reason (fun () -> Governor.count_facts (Some gov) 1) in
        Alcotest.(check bool) "count_facts after trip" true (r = None || r = Some Governor.Work_budget));
    test "fact budget trips Fact_budget" (fun () ->
        let gov = Governor.create ~max_facts:3 () in
        Governor.count_facts (Some gov) 3;
        let r = trip_reason (fun () -> Governor.count_facts (Some gov) 1) in
        Alcotest.(check bool) "tripped facts" true (r = Some Governor.Fact_budget));
    test "wave budget trips Wave_budget" (fun () ->
        let gov = Governor.create ~max_waves:2 () in
        Governor.count_wave (Some gov);
        Governor.count_wave (Some gov);
        let r = trip_reason (fun () -> Governor.count_wave (Some gov)) in
        Alcotest.(check bool) "tripped waves" true (r = Some Governor.Wave_budget));
    test "expired deadline trips at the next checkpoint" (fun () ->
        let gov = Governor.create ~deadline_ms:0.000001 () in
        Unix.sleepf 0.002;
        let r = trip_reason (fun () -> Governor.check (Some gov)) in
        Alcotest.(check bool) "tripped deadline" true (r = Some Governor.Deadline));
    test "cancel is observed at the next checkpoint" (fun () ->
        let gov = Governor.create () in
        Alcotest.(check bool) "not cancelled" false (Governor.cancelled gov);
        Governor.cancel gov;
        Alcotest.(check bool) "cancelled" true (Governor.cancelled gov);
        let r = trip_reason (fun () -> Governor.check (Some gov)) in
        Alcotest.(check bool) "tripped cancelled" true (r = Some Governor.Cancelled);
        Alcotest.(check bool) "elapsed is measured" true (Governor.elapsed_s gov >= 0.));
    test "amortized ticks stay silent under budget" (fun () ->
        let gov = Governor.create ~max_work:1_000_000 () in
        for _ = 1 to 5_000 do
          Governor.tick (Some gov) 1
        done;
        Alcotest.(check bool) "no trip" true (Governor.tripped gov = None);
        Alcotest.(check int) "work counted" 5_000 (Governor.work_done gov));
    test "no governor means no-ops" (fun () ->
        Governor.tick None 1_000_000;
        Governor.count_facts None 1_000_000;
        Governor.count_wave None;
        Governor.check None);
    test "finish wraps tripped state as Partial" (fun () ->
        Alcotest.(check bool) "none is complete" true
          (Governor.finish None 42 = Governor.Complete 42);
        let gov = Governor.create ~max_work:1 () in
        Alcotest.(check bool) "untripped is complete" true
          (Governor.finish (Some gov) 42 = Governor.Complete 42);
        ignore (trip_reason (fun () -> Governor.tick (Some gov) 2));
        match Governor.finish (Some gov) 42 with
        | Governor.Partial { value = 42; reason = Governor.Work_budget; work; _ } ->
            Alcotest.(check bool) "work recorded" true (work >= 2)
        | _ -> Alcotest.fail "expected Partial Work_budget");
    test "trip reasons are counted by reason label" (fun () ->
        let before =
          counter_value ~labels:[ ("reason", "fact-budget") ]
            "lsdb_governor_trips_total"
        in
        let gov = Governor.create ~max_facts:1 () in
        ignore (trip_reason (fun () -> Governor.count_facts (Some gov) 2));
        ignore (trip_reason (fun () -> Governor.count_facts (Some gov) 2));
        let after =
          counter_value ~labels:[ ("reason", "fact-budget") ]
            "lsdb_governor_trips_total"
        in
        (* Only the first CAS owner bumps the counter. *)
        Alcotest.(check int) "one trip counted" (before + 1) after);
    test "describe names the armed budgets" (fun () ->
        let gov = Governor.create ~deadline_ms:250. ~max_facts:7 () in
        let d = Governor.describe gov in
        Alcotest.(check bool) "mentions deadline" true (contains d "deadline=");
        Alcotest.(check bool) "mentions facts" true (contains d "facts=7");
        Alcotest.(check bool) "cancellation-only" true
          (contains (Governor.describe (Governor.create ())) "cancellation"));
  ]

(* ------------------------------------------------------------------ *)
(* Retry.run                                                           *)

let fast = { Governor.Retry.attempts = 4; base_delay_s = 0.; max_delay_s = 0. }

let retry_tests =
  [
    test "succeeds after transient failures" (fun () ->
        let calls = ref 0 and retries = ref 0 in
        let result =
          Governor.Retry.run ~policy:fast
            ~on_retry:(fun ~attempt:_ _ -> incr retries)
            ~retry_on:(fun _ -> true)
            (fun () ->
              incr calls;
              if !calls < 3 then failwith "transient";
              "ok")
        in
        Alcotest.(check string) "result" "ok" result;
        Alcotest.(check int) "calls" 3 !calls;
        Alcotest.(check int) "retries" 2 !retries);
    test "gives up after the attempt budget" (fun () ->
        let calls = ref 0 and gaveup = ref false in
        (match
           Governor.Retry.run
             ~policy:{ fast with attempts = 3 }
             ~on_giveup:(fun _ -> gaveup := true)
             ~retry_on:(fun _ -> true)
             (fun () ->
               incr calls;
               failwith "always")
         with
        | (_ : unit) -> Alcotest.fail "should raise"
        | exception Failure _ -> ());
        Alcotest.(check int) "attempted exactly the budget" 3 !calls;
        Alcotest.(check bool) "giveup reported" true !gaveup);
    test "non-matching exceptions propagate immediately" (fun () ->
        let calls = ref 0 in
        (match
           Governor.Retry.run ~policy:fast
             ~retry_on:(function Failure _ -> true | _ -> false)
             (fun () ->
               incr calls;
               invalid_arg "fatal")
         with
        | (_ : unit) -> Alcotest.fail "should raise"
        | exception Invalid_argument _ -> ());
        Alcotest.(check int) "no retry" 1 !calls);
  ]

(* ------------------------------------------------------------------ *)
(* Partial-result soundness across the evaluation stack                *)

let university () =
  Lsdb_workload.University_gen.to_database
    (Lsdb_workload.University_gen.generate
       ~params:
         {
           Lsdb_workload.University_gen.students = 40;
           courses = 10;
           instructors = 5;
           enrollments_per_student = 3;
         }
       (Lsdb_workload.Rng.create 7))

let all_closure_facts db =
  let acc = ref [] in
  Database.closure_match db (Store.pattern ()) (fun f -> acc := f :: !acc);
  List.sort_uniq Fact.compare !acc

let is_subset ~sub ~super =
  let tbl = Fact.Tbl.create (List.length super) in
  List.iter (fun f -> Fact.Tbl.replace tbl f ()) super;
  List.for_all (Fact.Tbl.mem tbl) sub

let with_pool domains f =
  match domains with
  | 1 -> f None
  | n ->
      let pool = Lsdb_exec.Pool.create ~domains:n in
      Fun.protect
        ~finally:(fun () -> Lsdb_exec.Pool.shutdown pool)
        (fun () -> f (Some pool))

let soundness_tests =
  let oracle_db = university () in
  let oracle = all_closure_facts oracle_db in
  let modes = [ ("eager", Database.Eager); ("demand", Database.Demand) ] in
  List.concat_map
    (fun (mode_name, mode) ->
      List.map
        (fun domains ->
          test
            (Printf.sprintf "partial answers are sound subsets (%s, %d domains)"
               mode_name domains)
            (fun () ->
              with_pool domains @@ fun pool ->
              (* Tripped run: a tight fact budget interrupts derivation. *)
              let db = Database.copy oracle_db in
              Database.set_pool db pool;
              Database.set_closure_mode db mode;
              let gov = Governor.create ~max_facts:25 () in
              Database.set_governor db (Some gov);
              let partial = all_closure_facts db in
              Alcotest.(check bool) "budget actually tripped" true
                (Governor.tripped gov <> None);
              Alcotest.(check bool) "partial ⊆ oracle" true
                (is_subset ~sub:partial ~super:oracle);
              (* Clearing the governor discards the partial state; the
                 same database then converges to the full answer set. *)
              Database.set_governor db None;
              let recovered = all_closure_facts db in
              Alcotest.(check int) "recovers to the oracle"
                (List.length oracle) (List.length recovered);
              Alcotest.(check bool) "recovered set equals oracle" true
                (List.equal Fact.equal oracle recovered);
              (* Untripped run: a roomy governor changes nothing. *)
              let db = Database.copy oracle_db in
              Database.set_pool db pool;
              Database.set_closure_mode db mode;
              let gov = Governor.create ~max_facts:max_int ~max_work:max_int () in
              Database.set_governor db (Some gov);
              let governed = all_closure_facts db in
              Alcotest.(check bool) "no trip" true (Governor.tripped gov = None);
              Alcotest.(check bool) "identical to oracle" true
                (List.equal Fact.equal oracle governed);
              Alcotest.(check bool) "not flagged partial" false
                (Database.closure_partial db);
              Database.set_governor db None;
              Database.set_pool db None))
        [ 1; 2; 4; 8 ])
    modes

let degradation_tests =
  [
    test "expired deadline yields a flagged partial closure" (fun () ->
        let db = university () in
        let gov = Governor.create ~deadline_ms:0.000001 () in
        Unix.sleepf 0.002;
        Database.set_governor db (Some gov);
        let partial = all_closure_facts db in
        Alcotest.(check bool) "deadline tripped" true
          (Governor.tripped gov = Some Governor.Deadline);
        Alcotest.(check bool) "flagged partial" true (Database.closure_partial db);
        Alcotest.(check bool) "still a subset" true
          (is_subset ~sub:partial ~super:(all_closure_facts (university ())));
        Database.set_governor db None);
    test "a deadline that trips during the base load keeps a base prefix" (fun () ->
        (* More base facts than one checkpoint interval, so the load
           itself reaches a checkpoint and trips there. *)
        let db = Database.create () in
        for i = 1 to 3000 do
          ignore
            (Database.insert_names db (Printf.sprintf "E%d" i) "R"
               (Printf.sprintf "F%d" i))
        done;
        let gov = Governor.create ~deadline_ms:0.000001 () in
        Unix.sleepf 0.002;
        Database.set_governor db (Some gov);
        let partial = all_closure_facts db in
        Alcotest.(check bool) "deadline tripped" true
          (Governor.tripped gov = Some Governor.Deadline);
        Alcotest.(check bool) "load stopped early" true
          (List.length partial < Database.base_cardinal db);
        Alcotest.(check bool) "only base facts" true
          (List.for_all (Database.mem_base db) partial);
        Database.set_governor db None);
    test "cancellation interrupts probing soundly" (fun () ->
        let db = Paper_examples.campus () in
        let gov = Governor.create () in
        Governor.cancel gov;
        Database.set_governor db (Some gov);
        (match Probing.probe db (q db "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)") with
        | Probing.Exhausted _ | Probing.Retracted _ | Probing.Answered _ -> ());
        Alcotest.(check bool) "cancel recorded" true
          (Governor.tripped gov = Some Governor.Cancelled);
        Database.set_governor db None);
  ]

(* ------------------------------------------------------------------ *)
(* The fact budget is the only closure cap                             *)

(* A 60-class generalization chain: transitivity derives 1770 facts, far
   past the 100-fact budget below. *)
let chain () =
  db_of
    (List.init 60 (fun i ->
         (Printf.sprintf "C%d" i, "isa", Printf.sprintf "C%d" (i + 1))))

let oversized_budget = 100

let limit_tests =
  let oracle = all_closure_facts (chain ()) in
  let partial_case name configure =
    test ("an oversized closure is a sound Partial Fact_budget (" ^ name ^ ")")
      (fun () ->
        let db = chain () in
        configure db;
        let gov = Governor.create ~max_facts:oversized_budget () in
        Database.set_governor db (Some gov);
        (match Governor.finish (Some gov) (all_closure_facts db) with
        | Governor.Partial { value; reason = Governor.Fact_budget; facts; _ } ->
            Alcotest.(check bool) "partial ⊆ ungoverned closure" true
              (is_subset ~sub:value ~super:oracle);
            Alcotest.(check bool) "strictly smaller" true
              (List.length value < List.length oracle);
            Alcotest.(check bool) "stopped at the budget" true
              (facts > oversized_budget)
        | Governor.Partial _ -> Alcotest.fail "tripped for another reason"
        | Governor.Complete _ -> Alcotest.fail "expected a Partial");
        Database.set_governor db None;
        Alcotest.(check bool) "ungoverned run completes" true
          (List.equal Fact.equal oracle (all_closure_facts db)))
  in
  [
    partial_case "eager, 1 shard" ignore;
    partial_case "eager, 2 shards" (fun db -> Database.set_shards db 2);
    partial_case "demand" (fun db -> Database.set_closure_mode db Database.Demand);
  ]

(* ------------------------------------------------------------------ *)
(* Storage retry                                                       *)

let storage_tests =
  let open Lsdb_storage in
  [
    test "transient fault on log.write succeeds after backoff, no duplicate frame"
      (fun () ->
        let vfs = Vfs.faulty () in
        let log = Log.open_ ~vfs ~retry:fast ~epoch:0 "/log" in
        Log.append log (Log.Insert ("A", "R", "B"));
        let retries_before = counter_value "lsdb_storage_retries_total" in
        let giveups_before = counter_value "lsdb_storage_retry_giveups_total" in
        (* One-shot ENOSPC: the first write attempt fails having written
           nothing; the retry resends the identical buffer. *)
        Vfs.arm vfs ~site:"log.write" Vfs.No_space;
        Log.sync log;
        Alcotest.(check int) "one retry"
          (retries_before + 1)
          (counter_value "lsdb_storage_retries_total");
        Alcotest.(check int) "no giveup" giveups_before
          (counter_value "lsdb_storage_retry_giveups_total");
        let ops = Log.read_all ~vfs "/log" in
        Alcotest.(check int) "frame appears exactly once" 1 (List.length ops);
        Alcotest.(check bool) "and is the op" true
          (List.for_all (Log.op_equal (Log.Insert ("A", "R", "B"))) ops));
    test "retry budget of one gives up and propagates the fault" (fun () ->
        let vfs = Vfs.faulty () in
        let log =
          Log.open_ ~vfs ~retry:{ fast with Governor.Retry.attempts = 1 } ~epoch:0
            "/log"
        in
        Log.append log (Log.Insert ("A", "R", "B"));
        let giveups_before = counter_value "lsdb_storage_retry_giveups_total" in
        Vfs.arm vfs ~site:"log.write" Vfs.No_space;
        (match Log.sync log with
        | (_ : unit) -> Alcotest.fail "expected the fault to propagate"
        | exception Vfs.Fault _ -> ());
        Alcotest.(check int) "giveup counted" (giveups_before + 1)
          (counter_value "lsdb_storage_retry_giveups_total");
        (* The fault consumed itself; the frame is still buffered and the
           next sync lands it exactly once. *)
        Log.sync log;
        Alcotest.(check int) "frame appears exactly once" 1
          (List.length (Log.read_all ~vfs "/log")));
    test "without a retry policy the fault propagates unchanged" (fun () ->
        let vfs = Vfs.faulty () in
        let log = Log.open_ ~vfs ~epoch:0 "/log" in
        Log.append log (Log.Insert ("A", "R", "B"));
        Vfs.arm vfs ~site:"log.write" Vfs.No_space;
        match Log.sync log with
        | (_ : unit) -> Alcotest.fail "expected Vfs.Fault"
        | exception Vfs.Fault _ -> ());
    test "persistent store opened with a retry policy survives a transient sync"
      (fun () ->
        let vfs = Vfs.faulty () in
        let p = Persistent.open_dir ~vfs ~retry:fast "/db" in
        ignore (Persistent.insert_names p "A" "R" "B");
        Vfs.arm vfs ~site:"log.fsync" Vfs.Fsync_raises;
        Persistent.sync p;
        Persistent.close p;
        let p = Persistent.open_dir ~vfs "/db" in
        Alcotest.(check bool) "fact survived" true
          (holds (Persistent.database p) ("A", "R", "B"));
        Persistent.close p);
  ]

(* ------------------------------------------------------------------ *)
(* Federation degradation                                              *)

let federation_tests =
  [
    test "a member that fails to open degrades to a skipped member" (fun () ->
        let skipped_before = counter_value "lsdb_federation_skipped_members_total" in
        let fed =
          Federation.create_lenient
            [
              ("good", fun () -> db_of [ ("A", "R", "B") ]);
              ("bad", fun () -> failwith "heap corrupt");
              ("also-good", fun () -> db_of [ ("C", "R", "D") ]);
            ]
        in
        Alcotest.(check (list string)) "members that merged"
          [ "good"; "also-good" ] (Federation.members fed);
        (match Federation.skipped fed with
        | [ ("bad", why) ] ->
            Alcotest.(check bool) "reason kept" true (contains why "heap corrupt")
        | _ -> Alcotest.fail "expected exactly one skipped member");
        let db = Federation.database fed in
        check_holds db "good member merged" ("A", "R", "B");
        check_holds db "second member merged" ("C", "R", "D");
        Alcotest.(check int) "skip counted" (skipped_before + 1)
          (counter_value "lsdb_federation_skipped_members_total"));
    test "create_lenient with no failures matches create" (fun () ->
        let fed =
          Federation.create_lenient [ ("m", fun () -> db_of [ ("A", "R", "B") ]) ]
        in
        Alcotest.(check (list string)) "members" [ "m" ] (Federation.members fed);
        Alcotest.(check bool) "nothing skipped" true (Federation.skipped fed = []));
  ]

(* ------------------------------------------------------------------ *)
(* Shell integration                                                   *)

let shell_tests =
  let open Lsdb_shell in
  [
    test ".deadline and .budget set, show and clear session budgets" (fun () ->
        let sh = Shell.create (Paper_examples.campus ()) in
        Alcotest.(check bool) "off by default" true
          (contains (Shell.execute sh ".deadline") "off");
        Alcotest.(check bool) "set" true
          (contains (Shell.execute sh ".deadline 250") "250");
        Alcotest.(check bool) "shown" true
          (contains (Shell.execute sh ".deadline") "250");
        Alcotest.(check bool) "cleared" true
          (contains (Shell.execute sh ".deadline off") "off");
        Alcotest.(check bool) "rejects junk" true
          (contains (Shell.execute sh ".deadline soon") "positive");
        Alcotest.(check bool) "budget set" true
          (contains (Shell.execute sh ".budget facts 10") "10");
        Alcotest.(check bool) "budget shown" true
          (contains (Shell.execute sh ".budget") "fact budget: 10");
        Alcotest.(check bool) "budget cleared" true
          (contains (Shell.execute sh ".budget off") "off"));
    test "a tripped query command warns and still answers" (fun () ->
        let sh = Shell.create (Paper_examples.campus ()) in
        ignore (Shell.execute sh ".budget facts 1");
        let out = Shell.execute sh "q (STUDENT, GEN, ?x)" in
        Alcotest.(check bool) "warning shown" true (contains out "warning:");
        Alcotest.(check bool) "names the reason" true (contains out "fact-budget");
        Alcotest.(check bool) "calls the subset sound" true
          (contains out "sound subset");
        (* Budgets are per query, and the trip does not leak: without the
           budget the same session answers completely, no warning. *)
        ignore (Shell.execute sh ".budget off");
        let out = Shell.execute sh "q (STUDENT, GEN, ?x)" in
        Alcotest.(check bool) "no warning" false (contains out "warning:"));
    test "ungoverned and roomy-governed output are identical" (fun () ->
        let plain = Shell.create (Paper_examples.campus ()) in
        let governed = Shell.create (Paper_examples.campus ()) in
        ignore (Shell.execute governed ".deadline 60000");
        List.iter
          (fun cmd ->
            Alcotest.(check string) cmd (Shell.execute plain cmd)
              (Shell.execute governed cmd))
          [ "q (STUDENT, GEN, ?x)"; "assoc STUDENT OPERA"; "try JOHN" ]);
    test "no governor is active between commands" (fun () ->
        let sh = Shell.create (Paper_examples.campus ()) in
        ignore (Shell.execute sh "q (STUDENT, GEN, ?x)");
        Alcotest.(check bool) "cleared after the command" true
          (Shell.active_governor sh = None);
        Alcotest.(check bool) "database governor cleared" true
          (Database.governor (Shell.database sh) = None));
    test "a new session carries the default fact budget; .budget off lifts it"
      (fun () ->
        let sh = Shell.create (Paper_examples.campus ()) in
        Alcotest.(check bool) "default shown" true
          (contains (Shell.execute sh ".budget")
             (Printf.sprintf "fact budget: %d" Shell.default_fact_budget));
        ignore (Shell.execute sh ".budget off");
        Alcotest.(check bool) "lifted" true
          (contains (Shell.execute sh ".budget") "fact budget: off"));
    test "an oversized closure warns through the shell, with no error line"
      (fun () ->
        let sh = Shell.create (chain ()) in
        ignore
          (Shell.execute sh (Printf.sprintf ".budget facts %d" oversized_budget));
        let out = Shell.execute sh "q (C0, isa, ?x)" in
        Alcotest.(check bool) "fact-budget warning" true
          (contains out "warning: fact-budget tripped");
        Alcotest.(check bool) "no error line" false (contains out "error:"));
    test "a checked insert under a tripped budget leaves the store unchanged"
      (fun () ->
        (* The closure derives three facts, past a one-fact budget. *)
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "in", "PERSON");
              ("PERSON", "isa", "ANIMAL");
            ]
        in
        let sh = Shell.create db in
        let before = Database.facts db in
        ignore (Shell.execute sh ".budget facts 1");
        let out = Shell.execute sh "insert (JOHN, HATES, MARY)" in
        Alcotest.(check bool) "rejected" true (contains out "rejected:");
        Alcotest.(check bool) "says why" true (contains out "incomplete");
        Alcotest.(check bool) "not inserted" false (contains out "inserted");
        Alcotest.(check bool) "store unchanged" true
          (List.equal Fact.equal before (Database.facts db)));
    test ".stats includes the governor digest" (fun () ->
        let sh = Shell.create (Paper_examples.campus ()) in
        let out = Shell.execute sh ".stats" in
        Alcotest.(check bool) "governor line" true (contains out "governor:");
        Alcotest.(check bool) "degradation line" true (contains out "degradation:"));
  ]

let tests =
  unit_tests @ retry_tests @ soundness_tests @ degradation_tests @ limit_tests
  @ storage_tests
  @ federation_tests @ shell_tests
