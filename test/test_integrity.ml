open Lsdb
open Testutil

let tests =
  [
    test "a contradiction-free database validates" (fun () ->
        Alcotest.(check bool) "organization valid" true
          (Integrity.is_valid (Paper_examples.organization ())));
    test "§3.5 contradiction facts flag clashing pairs" (fun () ->
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "HATES", "MARY");
            ]
        in
        let violations = Integrity.violations db in
        Alcotest.(check int) "one violation" 1 (List.length violations);
        match violations with
        | [ { Integrity.conflict = Integrity.Contradictory clash; fact } ] ->
            let pair =
              List.sort String.compare
                [ Database.entity_name db fact.Fact.r;
                  Database.entity_name db clash.Fact.r ]
            in
            Alcotest.(check (list string)) "loves/hates" [ "HATES"; "LOVES" ] pair
        | _ -> Alcotest.fail "expected one Contradictory violation");
    test "§2.5 constraint rules surface as math refutations" (fun () ->
        (* (x,∈,AGE) ⇒ (x,>,0): a negative age derives (−5,>,0), refuted
           by the oracle. *)
        let db = db_of [ ("-5", "in", "AGE") ] in
        let rule =
          Rule.make ~name:"ages-positive"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "AGE")) ]
            ~heads:
              [ Template.make (Template.Var "x") (Template.Ent Entity.gt)
                  (Template.Ent (Database.entity db "0")) ]
            ()
        in
        Database.add_rule db rule;
        let violations = Integrity.violations db in
        Alcotest.(check bool) "math violation found" true
          (List.exists
             (fun v -> v.Integrity.conflict = Integrity.Math)
             violations));
    test "a positive age satisfies the same constraint" (fun () ->
        let db = db_of [ ("30", "in", "AGE") ] in
        let rule =
          Rule.make ~name:"ages-positive"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "AGE")) ]
            ~heads:
              [ Template.make (Template.Var "x") (Template.Ent Entity.gt)
                  (Template.Ent (Database.entity db "0")) ]
            ()
        in
        Database.add_rule db rule;
        Alcotest.(check bool) "valid" true (Integrity.is_valid db));
    test "§2.5 the manager-salary constraint" (fun () ->
        (* employee x earning u with manager y earning v requires v > u. *)
        let db =
          db_of
            [
              ("X", "in", "WORKER");
              ("Y", "in", "WORKER");
              ("X", "PAID", "5000");
              ("Y", "PAID", "4000");
              ("X", "BOSS", "Y");
            ]
        in
        let e name = Template.Ent (Database.entity db name) in
        let v name = Template.Var name in
        let rule =
          Rule.make ~name:"boss-earns-more"
            ~body:
              [
                Template.make (v "x") (e "PAID") (v "u");
                Template.make (v "y") (e "PAID") (v "v");
                Template.make (v "x") (e "BOSS") (v "y");
              ]
            ~heads:[ Template.make (v "v") (Template.Ent Entity.gt) (v "u") ]
            ()
        in
        Database.add_rule db rule;
        (* Y (the boss) earns less: violation. *)
        Alcotest.(check bool) "violated" false (Integrity.is_valid db);
        (* Raise the boss's salary: the constraint is satisfied. *)
        ignore (Database.remove_names db "Y" "PAID" "4000");
        ignore (Database.insert_names db "Y" "PAID" "6000");
        Alcotest.(check bool) "satisfied" true (Integrity.is_valid db));
    test "insert_checked rolls back a violating fact" (fun () ->
        let db =
          db_of [ ("LOVES", "contra", "HATES"); ("JOHN", "LOVES", "MARY") ] in
        let bad = fact db ("JOHN", "HATES", "MARY") in
        (match Integrity.insert_checked db bad with
        | Error (Integrity.Violations violations) ->
            Alcotest.(check bool) "reported" true (violations <> [])
        | Error (Integrity.Unverified _) -> Alcotest.fail "ungoverned check cut short"
        | Ok _ -> Alcotest.fail "expected Error");
        Alcotest.(check bool) "rolled back" false (Database.mem_base db bad);
        Alcotest.(check bool) "database still valid" true (Integrity.is_valid db));
    test "insert_checked under a tripped governor rolls back, typed" (fun () ->
        (* The check would find the clash, but on a partial closure it
           proves nothing either way: never Ok, store unchanged. *)
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "in", "PERSON");
              ("PERSON", "isa", "ANIMAL");
            ]
        in
        let before = Database.facts db in
        let bad = fact db ("JOHN", "HATES", "MARY") in
        Database.set_governor db
          (Some (Lsdb_exec.Governor.create ~max_facts:1 ()));
        (match Integrity.insert_checked db bad with
        | Error (Integrity.Unverified Lsdb_exec.Governor.Fact_budget) -> ()
        | Error (Integrity.Unverified _) -> Alcotest.fail "wrong trip reason"
        | Error (Integrity.Violations _) -> Alcotest.fail "expected Unverified"
        | Ok _ -> Alcotest.fail "a partial check must not return Ok");
        Database.set_governor db None;
        Alcotest.(check bool) "store unchanged" true
          (List.equal Fact.equal before (Database.facts db));
        Alcotest.(check bool) "database still valid" true (Integrity.is_valid db));
    test "insert_checked accepts a harmless fact" (fun () ->
        let db = db_of [ ("JOHN", "LOVES", "MARY") ] in
        match Integrity.insert_checked db (fact db ("JOHN", "LIKES", "FELIX")) with
        | Ok true -> ()
        | _ -> Alcotest.fail "expected Ok true");
    test "insert_checked is idempotent on present facts" (fun () ->
        let db = db_of [ ("JOHN", "LOVES", "MARY") ] in
        match Integrity.insert_checked db (fact db ("JOHN", "LOVES", "MARY")) with
        | Ok false -> ()
        | _ -> Alcotest.fail "expected Ok false");
    test "add_rule_checked rejects a constraint the data violates" (fun () ->
        let db = db_of [ ("-5", "in", "AGE") ] in
        let rule =
          Rule.make ~name:"ages-positive"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "AGE")) ]
            ~heads:
              [ Template.make (Template.Var "x") (Template.Ent Entity.gt)
                  (Template.Ent (Database.entity db "0")) ]
            ()
        in
        (match Integrity.add_rule_checked db rule with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected Error");
        Alcotest.(check bool) "rule rolled back" false
          (List.exists
             (fun (r, _) -> Rule.equal_name r rule)
             (Database.rules db)));
    test "contradictions via inferred facts are caught" (fun () ->
        (* HATES is derived through a synonym; the clash is still found. *)
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "DESPISES", "MARY");
              ("DESPISES", "syn", "HATES");
            ]
        in
        Alcotest.(check bool) "invalid" false (Integrity.is_valid db));
    test "describe renders both violation kinds" (fun () ->
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "HATES", "MARY");
            ]
        in
        List.iter
          (fun v ->
            Alcotest.(check bool) "nonempty description" true
              (String.length (Integrity.describe db v) > 0))
          (Integrity.violations db));
  ]
