open Lsdb
open Testutil

let sample_store () =
  let store = Store.create () in
  let add s r t = ignore (Store.add store (Fact.make s r t)) in
  add 100 1 200;
  add 100 1 201;
  add 100 2 200;
  add 101 1 200;
  add 102 3 300;
  store

let sorted_list store pat =
  List.sort Fact.compare (Store.match_list store pat)

module Index = Lsdb_datalog.Index

let policies = [ Index.Always; Index.Never; Index.Watermark ]

(* A small watermark so [Watermark] actually freezes on test-sized
   stores; both process globals are restored afterwards. *)
let with_policy policy f =
  let saved = Index.policy () and saved_min = Index.min_delta () in
  Index.set_policy policy;
  Index.set_min_delta 16;
  Fun.protect
    ~finally:(fun () ->
      Index.set_policy saved;
      Index.set_min_delta saved_min)
    f

(* Entities 0..universe-1: small enough that random ops collide, remove
   present facts and resurrect frozen ones. *)
let universe = 6
let pick rng = Random.State.int rng universe

(* Every bound-position shape, over every binding in the universe. *)
let all_patterns () =
  let some = List.init universe Option.some in
  let opts = None :: some in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun r -> List.map (fun t -> { Store.s; r; t }) opts)
        opts)
    opts

let tests =
  [
    test "add/mem/remove round trip" (fun () ->
        let store = Store.create () in
        let f = Fact.make 1 2 3 in
        Alcotest.(check bool) "add new" true (Store.add store f);
        Alcotest.(check bool) "add dup" false (Store.add store f);
        Alcotest.(check bool) "mem" true (Store.mem store f);
        Alcotest.(check int) "cardinal" 1 (Store.cardinal store);
        Alcotest.(check bool) "remove" true (Store.remove store f);
        Alcotest.(check bool) "remove again" false (Store.remove store f);
        Alcotest.(check bool) "gone" false (Store.mem store f);
        Alcotest.(check int) "empty" 0 (Store.cardinal store));
    test "every pattern shape answers correctly" (fun () ->
        let store = sample_store () in
        let count pat = Store.count_matches store pat in
        Alcotest.(check int) "(s,r,t)" 1 (count (Store.pattern ~s:100 ~r:1 ~t:200 ()));
        Alcotest.(check int) "(s,r,?)" 2 (count (Store.pattern ~s:100 ~r:1 ()));
        Alcotest.(check int) "(s,?,t)" 2 (count (Store.pattern ~s:100 ~t:200 ()));
        Alcotest.(check int) "(?,r,t)" 2 (count (Store.pattern ~r:1 ~t:200 ()));
        Alcotest.(check int) "(s,?,?)" 3 (count (Store.pattern ~s:100 ()));
        Alcotest.(check int) "(?,r,?)" 3 (count (Store.pattern ~r:1 ()));
        Alcotest.(check int) "(?,?,t)" 3 (count (Store.pattern ~t:200 ()));
        Alcotest.(check int) "(?,?,?)" 5 (count (Store.pattern ())));
    test "match_scan agrees with match_pattern on every shape" (fun () ->
        let store = sample_store () in
        let patterns =
          [
            Store.pattern ~s:100 ~r:1 ~t:200 ();
            Store.pattern ~s:100 ~r:1 ();
            Store.pattern ~s:100 ~t:200 ();
            Store.pattern ~r:1 ~t:200 ();
            Store.pattern ~s:100 ();
            Store.pattern ~r:1 ();
            Store.pattern ~t:200 ();
            Store.pattern ();
            Store.pattern ~s:999 ();
          ]
        in
        List.iter
          (fun pat ->
            let scanned = ref [] in
            Store.match_scan store pat (fun f -> scanned := f :: !scanned);
            Alcotest.(check int)
              "same cardinality"
              (List.length (Store.match_list store pat))
              (List.length !scanned);
            Alcotest.(check bool)
              "same set" true
              (List.sort Fact.compare !scanned = sorted_list store pat))
          patterns);
    test "removal updates all indexes" (fun () ->
        let store = sample_store () in
        ignore (Store.remove store (Fact.make 100 1 200));
        Alcotest.(check int) "(s,r,?)" 1 (Store.count_matches store (Store.pattern ~s:100 ~r:1 ()));
        Alcotest.(check int) "(?,?,t)" 2 (Store.count_matches store (Store.pattern ~t:200 ()));
        Alcotest.(check int) "(s,?,?)" 2 (Store.count_matches store (Store.pattern ~s:100 ())));
    test "active_entities tracks refcounts through deletion" (fun () ->
        let store = Store.create () in
        ignore (Store.add store (Fact.make 1 2 3));
        ignore (Store.add store (Fact.make 1 2 4));
        let actives () = List.sort compare (List.of_seq (Store.active_entities store)) in
        Alcotest.(check (list int)) "all present" [ 1; 2; 3; 4 ] (actives ());
        ignore (Store.remove store (Fact.make 1 2 4));
        Alcotest.(check (list int)) "4 gone" [ 1; 2; 3 ] (actives ());
        ignore (Store.remove store (Fact.make 1 2 3));
        Alcotest.(check (list int)) "empty" [] (actives ()));
    test "clear and copy" (fun () ->
        let store = sample_store () in
        let copy = Store.copy store in
        Store.clear store;
        Alcotest.(check int) "cleared" 0 (Store.cardinal store);
        Alcotest.(check int) "copy unaffected" 5 (Store.cardinal copy));
    (* Model-based property: a Store behaves like a set of triples. *)
    qcheck "store agrees with a set model"
      QCheck.(
        list
          (pair (pair (int_bound 5) (int_bound 5)) (pair (int_bound 5) bool)))
      (fun ops ->
        let store = Store.create () in
        let model = Hashtbl.create 16 in
        List.iter
          (fun ((a, b), (c, is_add)) ->
            let f = Fact.make a b c in
            if is_add then begin
              let added = Store.add store f in
              let fresh = not (Hashtbl.mem model f) in
              Hashtbl.replace model f ();
              if added <> fresh then QCheck.Test.fail_report "add disagrees"
            end
            else begin
              let removed = Store.remove store f in
              let present = Hashtbl.mem model f in
              Hashtbl.remove model f;
              if removed <> present then QCheck.Test.fail_report "remove disagrees"
            end)
          ops;
        Store.cardinal store = Hashtbl.length model
        && Hashtbl.fold (fun f () acc -> acc && Store.mem store f) model true);
    test "count_fast equals count_matches on every shape after mixed adds and removes"
      (fun () ->
        List.iter
          (fun policy ->
            with_policy policy @@ fun () ->
            let store = Store.create ~shards:2 () in
            let rng = Random.State.make [| 7 |] in
            let fact () = Fact.make (pick rng) (pick rng) (pick rng) in
            for step = 1 to 600 do
              if Random.State.int rng 4 = 0 then ignore (Store.remove store (fact ()))
              else ignore (Store.add store (fact ()));
              if step mod 150 = 0 then Store.quiesce store
            done;
            List.iter
              (fun pat ->
                Alcotest.(check int) "count_fast" (Store.count_matches store pat)
                  (Store.count_fast store pat))
              (all_patterns ()))
          policies);
    (* The store against an independent model: a triple set plus entity
       refcounts, through seeded add/remove/reshard/quiesce sequences
       under every freeze policy. *)
    test "store equals a set-and-refcount model under every freeze policy"
      (fun () ->
        List.iter
          (fun policy ->
            for seed = 1 to 4 do
              with_policy policy @@ fun () ->
              let rng = Random.State.make [| seed |] in
              let store = Store.create () in
              let model = ref Fact.Set.empty in
              let refs = Hashtbl.create 16 in
              let bump e by =
                let n = by + Option.value ~default:0 (Hashtbl.find_opt refs e) in
                if n = 0 then Hashtbl.remove refs e else Hashtbl.replace refs e n
              in
              let bump_fact (f : Fact.t) by =
                bump f.s by;
                bump f.r by;
                bump f.t by
              in
              let check_all () =
                Alcotest.(check int) "cardinal" (Fact.Set.cardinal !model)
                  (Store.cardinal store);
                List.iter
                  (fun (pat : Store.pattern) ->
                    let expected =
                      Fact.Set.elements
                        (Fact.Set.filter
                           (fun (f : Fact.t) ->
                             Option.fold ~none:true ~some:(( = ) f.s) pat.s
                             && Option.fold ~none:true ~some:(( = ) f.r) pat.r
                             && Option.fold ~none:true ~some:(( = ) f.t) pat.t)
                           !model)
                    in
                    Alcotest.(check bool) "match_pattern" true
                      (sorted_list store pat = expected);
                    Alcotest.(check int) "count_fast" (List.length expected)
                      (Store.count_fast store pat))
                  (all_patterns ());
                for e = 0 to universe - 1 do
                  Alcotest.(check bool) "entity_active" (Hashtbl.mem refs e)
                    (Store.entity_active store e)
                done;
                let plan = Store.shard_plan store in
                let per_shard = Array.make (Store.shards store) 0 in
                Fact.Set.iter
                  (fun (f : Fact.t) ->
                    let i = Lsdb_datalog.Shard.of_entity plan f.s in
                    per_shard.(i) <- per_shard.(i) + 1)
                  !model;
                Alcotest.(check (array int)) "shard_cardinals" per_shard
                  (Store.shard_cardinals store)
              in
              for step = 1 to 400 do
                let f = Fact.make (pick rng) (pick rng) (pick rng) in
                (match Random.State.int rng 20 with
                | 0 -> Store.reshard store (1 + Random.State.int rng 4)
                | 1 | 2 -> Store.quiesce store
                | 3 | 4 | 5 | 6 | 7 ->
                    let present = Fact.Set.mem f !model in
                    Alcotest.(check bool) "remove" present (Store.remove store f);
                    if present then begin
                      model := Fact.Set.remove f !model;
                      bump_fact f (-1)
                    end
                | _ ->
                    let fresh = not (Fact.Set.mem f !model) in
                    Alcotest.(check bool) "add" fresh (Store.add store f);
                    if fresh then begin
                      model := Fact.Set.add f !model;
                      bump_fact f 1
                    end);
                Alcotest.(check bool) "mem" (Fact.Set.mem f !model) (Store.mem store f);
                if step mod 25 = 0 then check_all ()
              done;
              check_all ()
            done)
          policies);
  ]
