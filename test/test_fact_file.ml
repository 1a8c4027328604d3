open Lsdb
open Testutil

let tests =
  [
    test "facts, comments and blank lines load" (fun () ->
        let db = Database.create () in
        let n =
          Fact_file.load_string db
            "# a comment\n\n(JOHN, LIKES, FELIX)\n(JOHN, EARNS, $25000)  # inline\n"
        in
        Alcotest.(check int) "two inserted" 2 n;
        check_holds db "fact" ("JOHN", "LIKES", "FELIX"));
    test "a quoted name containing # round-trips" (fun () ->
        (* save_string quotes PC#9-WAM; the loader must not read its '#'
           as a comment. *)
        let db = Database.create () in
        let n =
          Fact_file.load_string db
            (Fact_file.save_string (Paper_examples.music ()))
        in
        Alcotest.(check int) "every music fact"
          (Database.base_cardinal (Paper_examples.music ()))
          (n + List.length Database.axiom_facts);
        check_holds db "quoted source" ("PC#9-WAM", "COMPOSED-BY", "MOZART");
        Alcotest.(check int) "still strips a trailing comment" 1
          (Fact_file.load_string (Database.create ())
             "(\"A#1\", R, B)  # \"unbalanced\n"));
    test "directives: class, individual, limit" (fun () ->
        let db = Database.create () in
        ignore
          (Fact_file.load_string db
             "class TOTAL-NUMBER\nindividual WORKS-FOR\nlimit 3\n");
        Alcotest.(check bool) "class" true
          (Database.is_class_relationship db (Database.entity db "TOTAL-NUMBER"));
        Alcotest.(check int) "limit" 3 (Database.limit db));
    test "rule directives add working rules" (fun () ->
        let db = Database.create () in
        ignore
          (Fact_file.load_string db
             "(REX, in, DOG)\nrule dogs-bark: (?x, in, DOG) => (?x, CAN, BARK)\n");
        check_holds db "derived" ("REX", "CAN", "BARK"));
    test "exclude and include directives" (fun () ->
        let db = Database.create () in
        ignore
          (Fact_file.load_string db
             "(JOHN, in, EMPLOYEE)\n(EMPLOYEE, EARNS, SALARY)\nexclude mem-source\n");
        check_not_holds db "excluded" ("JOHN", "EARNS", "SALARY");
        ignore (Fact_file.load_string db "include mem-source\n");
        check_holds db "included" ("JOHN", "EARNS", "SALARY"));
    test "errors carry line numbers" (fun () ->
        let db = Database.create () in
        let expect_line line text =
          try
            ignore (Fact_file.load_string db text);
            Alcotest.fail "expected Syntax_error"
          with Fact_file.Syntax_error { line = got; _ } ->
            Alcotest.(check int) "line" line got
        in
        expect_line 2 "(A, B, C)\n(broken\n";
        expect_line 1 "(?x, B, C)\n";
        expect_line 3 "(A, B, C)\n\nnonsense D\n";
        expect_line 1 "limit zero\n";
        expect_line 1 "exclude no-such-rule\n");
    test "save/load round-trips facts, declarations and limit" (fun () ->
        let db = Paper_examples.organization () in
        Database.set_limit db 3;
        ignore (Database.exclude db "syn-rel");
        let text = Fact_file.save_string db in
        let db' = Database.create () in
        ignore (Fact_file.load_string db' text);
        (* Same base facts. *)
        let base db =
          Database.facts db
          |> List.map (fun f ->
                 let s, r, t = Fact.names (Database.symtab db) f in
                 Printf.sprintf "(%s,%s,%s)" s r t)
          |> List.sort String.compare
        in
        Alcotest.(check (list string)) "facts preserved" (base db) (base db');
        Alcotest.(check int) "limit" 3 (Database.limit db');
        Alcotest.(check bool) "exclusion preserved" false (Database.rule_enabled db' "syn-rel");
        Alcotest.(check bool) "class declaration preserved" true
          (Database.is_class_relationship db' (Database.entity db' "TOTAL-NUMBER")));
    test "quoted names survive the round trip" (fun () ->
        let db = Database.create () in
        ignore (Database.insert_names db "WAR, AND PIECES" "CITES" "SMALL (BLUE) BOOK");
        let text = Fact_file.save_string db in
        let db' = Database.create () in
        ignore (Fact_file.load_string db' text);
        check_holds db' "quoted fact" ("WAR, AND PIECES", "CITES", "SMALL (BLUE) BOOK"));
    test "file save/load" (fun () ->
        let db = Paper_examples.campus () in
        let path = Filename.temp_file "lsdb_test" ".lsdb" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Fact_file.save_file db path;
            let db' = Database.create () in
            let n = Fact_file.load_file db' path in
            Alcotest.(check int) "facts loaded" (Database.base_cardinal db - 2)
              n (* axiom facts are not serialized *);
            check_holds db' "sample" ("FRESHMAN", "isa", "STUDENT")));
  ]
