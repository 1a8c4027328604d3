open Lsdb_datalog
open Testutil

let v i = Term.Var i
let c x = Term.Const x
let atom a b d = Atom.make a b d
let triple = Triple.make

let closure rules base =
  Engine.closure rules (List.to_seq base)

let tests =
  [
    test "rule safety: head variable must occur in body" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rule.make ~name:"bad"
                  ~body:[ atom (v 0) (c 1) (v 1) ]
                  ~heads:[ atom (v 0) (c 1) (v 2) ]
                  ());
             false
           with Rule.Unsafe _ -> true));
    test "rule safety: empty body/head rejected" (fun () ->
        Alcotest.(check bool) "empty head" true
          (try
             ignore (Rule.make ~name:"nohead" ~body:[ atom (v 0) (c 1) (v 1) ] ~heads:[] ());
             false
           with Rule.Unsafe _ -> true));
    test "transitive closure via one rule" (fun () ->
        (* edge(x,y) ∧ edge(y,z) ⇒ edge(x,z), over a 5-chain *)
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let base = List.init 4 (fun i -> triple (100 + i) edge (101 + i)) in
        let result = closure [ rule ] base in
        (* 5 nodes in a chain: all ordered pairs = 4+3+2+1 = 10 edges *)
        Alcotest.(check int) "closure size" 10 (Index.cardinal result.index);
        Alcotest.(check bool) "end-to-end edge" true
          (Index.mem result.index (triple 100 edge 104)));
    test "guards restrict derivations" (fun () ->
        let rel = 7 and blessed = 8 in
        let rule =
          Rule.make ~name:"guarded"
            ~body:[ atom (v 0) (v 1) (v 2) ]
            ~guards:[ Guard.Holds ("blessed", (fun r -> r = blessed), v 1) ]
            ~heads:[ atom (v 2) (v 1) (v 0) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 rel 2; triple 1 blessed 2 ] in
        Alcotest.(check bool) "blessed flipped" true (Index.mem result.index (triple 2 blessed 1));
        Alcotest.(check bool) "unblessed not flipped" false
          (Index.mem result.index (triple 2 rel 1)));
    test "distinct guard" (fun () ->
        let rel = 7 in
        let rule =
          Rule.make ~name:"nonrefl"
            ~body:[ atom (v 0) (c rel) (v 1) ]
            ~guards:[ Guard.Distinct (v 0, v 1) ]
            ~heads:[ atom (v 1) (c rel) (v 0) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 rel 1; triple 1 rel 2 ] in
        Alcotest.(check bool) "symmetric pair" true (Index.mem result.index (triple 2 rel 1));
        Alcotest.(check int) "reflexive not duplicated" 3 (Index.cardinal result.index));
    test "provenance records rule and premises" (fun () ->
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 edge 2; triple 2 edge 3 ] in
        match Triple.Tbl.find_opt result.provenance (triple 1 edge 3) with
        | None -> Alcotest.fail "no provenance"
        | Some { Engine.rule = name; premises } ->
            Alcotest.(check string) "rule name" "trans" name;
            Alcotest.(check int) "two premises" 2 (List.length premises);
            Alcotest.(check bool) "premises are the base facts" true
              (List.sort Triple.compare premises
              = [ triple 1 edge 2; triple 2 edge 3 ]));
    test "multi-head rules derive all heads" (fun () ->
        let rel = 7 and left = 8 and right = 9 in
        let rule =
          Rule.make ~name:"both"
            ~body:[ atom (v 0) (c rel) (v 1) ]
            ~heads:[ atom (v 0) (c left) (v 1); atom (v 1) (c right) (v 0) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 rel 2 ] in
        Alcotest.(check bool) "left" true (Index.mem result.index (triple 1 left 2));
        Alcotest.(check bool) "right" true (Index.mem result.index (triple 2 right 1)));
    test "rounds reach fixpoint logarithmically for transitive chains" (fun () ->
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let base = List.init 16 (fun i -> triple i edge (i + 1)) in
        let result = closure [ rule ] base in
        Alcotest.(check int) "full closure" (17 * 16 / 2) (Index.cardinal result.index);
        Alcotest.(check bool) "few rounds" true (result.rounds <= 8));
    test "duplicate base facts are collapsed" (fun () ->
        let result = closure [] [ triple 1 2 3; triple 1 2 3 ] in
        Alcotest.(check int) "one fact" 1 (Index.cardinal result.index);
        Alcotest.(check int) "no derived" 0 (List.length result.derived));
    test "step derives one round without fixpoint" (fun () ->
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let index = Index.create () in
        List.iter (fun t -> ignore (Index.add index t))
          [ triple 1 edge 2; triple 2 edge 3; triple 3 edge 4 ];
        let derived = Engine.step [ rule ] index in
        (* One round: (1,3) and (2,4), but not (1,4). *)
        Alcotest.(check int) "two new" 2
          (List.length (List.sort_uniq Triple.compare derived));
        Alcotest.(check bool) "(1,4) needs two rounds" false
          (List.mem (triple 1 edge 4) derived));
    test "index candidate patterns" (fun () ->
        let index = Index.create () in
        List.iter (fun t -> ignore (Index.add index t))
          [ triple 1 2 3; triple 1 2 4; triple 5 2 3 ];
        let count ~s ~r ~tgt =
          let n = ref 0 in
          Index.candidates index ~s ~r ~tgt (fun _ -> incr n);
          !n
        in
        Alcotest.(check int) "sr" 2 (count ~s:(Some 1) ~r:(Some 2) ~tgt:None);
        Alcotest.(check int) "rt" 2 (count ~s:None ~r:(Some 2) ~tgt:(Some 3));
        Alcotest.(check int) "st" 1 (count ~s:(Some 1) ~r:None ~tgt:(Some 3));
        Alcotest.(check int) "point" 1 (count ~s:(Some 1) ~r:(Some 2) ~tgt:(Some 3));
        Alcotest.(check int) "all" 3 (count ~s:None ~r:None ~tgt:None));
  ]
