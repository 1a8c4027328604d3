open Lsdb
open Testutil

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- independent reference for [Search.fuzzy] ------------------------

   A full-matrix Levenshtein and a brute-force scan that share no code
   with the library's kernel: every user entity, no length prefilter. *)

let reference_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do d.(i).(0) <- i done;
  for j = 0 to lb do d.(0).(j) <- j done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <- min (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + cost)
    done
  done;
  d.(la).(lb)

(* All (distance, entity) pairs of the user entities, case-folded. *)
let reference_distances db name =
  let symtab = Database.symtab db in
  let target = String.lowercase_ascii name in
  let all = ref [] in
  Symtab.iter_user
    (fun e ->
      let cand = String.lowercase_ascii (Symtab.name symtab e) in
      all := (reference_distance cand target, e) :: !all)
    symtab;
  !all

let reference_fuzzy distances ~limit ~max_distance =
  List.filter (fun (d, _) -> d > 0 && d <= max_distance) distances
  |> List.sort compare
  |> List.filteri (fun i _ -> i < limit)
  |> List.map snd

(* Names drawn from a mix of cases, digits, punctuation and a two-byte
   UTF-8 character, clustered around a few stems so that near misses
   exist at every distance. *)
let alphabet =
  [| "A"; "B"; "J"; "O"; "H"; "N"; "a"; "b"; "j"; "o"; "h"; "n"; "0"; "7"; "-"; "#"; "\xc2\xb7" |]

let random_string rng len =
  let b = Buffer.create len in
  while Buffer.length b < len do
    Buffer.add_string b alphabet.(Random.State.int rng (Array.length alphabet))
  done;
  Buffer.sub b 0 len

let show db es = String.concat "; " (List.map (fun e -> String.escaped (Database.entity_name db e)) es)

let flip_case c =
  if Char.lowercase_ascii c <> c then Char.lowercase_ascii c else Char.uppercase_ascii c

let mutate rng s edits =
  let s = ref s in
  for _ = 1 to edits do
    let n = String.length !s in
    let i = Random.State.int rng (n + 1) in
    let piece = random_string rng 1 in
    s :=
      match Random.State.int rng 4 with
      | 0 -> String.sub !s 0 i ^ piece ^ String.sub !s i (n - i)
      | 1 when i < n -> String.sub !s 0 i ^ String.sub !s (i + 1) (n - i - 1)
      | 2 when i < n -> String.sub !s 0 i ^ piece ^ String.sub !s (i + 1) (n - i - 1)
      | _ -> String.map (fun c -> if Random.State.int rng 4 = 0 then flip_case c else c) !s
  done;
  !s

let tests =
  [
    test "edit_distance reference values" (fun () ->
        List.iter
          (fun (a, b, expected) ->
            Alcotest.(check int) (a ^ "/" ^ b) expected (Search.edit_distance a b))
          [
            ("", "", 0);
            ("A", "", 1);
            ("", "ABC", 3);
            ("JOHN", "JOHN", 0);
            ("JOHM", "JOHN", 1);
            ("JOHNN", "JOHN", 1);
            ("KITTEN", "SITTING", 3);
            ("FLAW", "LAWN", 2);
          ]);
    test "edit_distance is symmetric and satisfies the triangle inequality"
      (fun () ->
        let words = [ "STUDENT"; "STUDENTS"; "PRUDENT"; "OPERA"; "OPERAS"; "" ] in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                Alcotest.(check int) "symmetric" (Search.edit_distance a b)
                  (Search.edit_distance b a);
                List.iter
                  (fun c ->
                    if
                      Search.edit_distance a c
                      > Search.edit_distance a b + Search.edit_distance b c
                    then Alcotest.fail "triangle inequality violated")
                  words)
              words)
          words);
    test "substring search is case-insensitive and shortest-first" (fun () ->
        let db = Paper_examples.music () in
        let hits = Search.substring db "pc#" in
        Alcotest.(check (list string)) "both concertos, shortest first"
          [ "PC#9-WAM"; "PC#20-PIT" ]
          (List.map (Database.entity_name db) hits);
        Alcotest.(check int) "no hits" 0 (List.length (Search.substring db "zzzz")));
    test "fuzzy finds near misses and excludes the exact name" (fun () ->
        let db = Paper_examples.music () in
        let hits = Search.fuzzy db "JOHM" in
        Alcotest.(check bool) "john found" true
          (List.mem "JOHN" (List.map (Database.entity_name db) hits));
        List.iter
          (fun spelling ->
            let exact = Search.fuzzy db spelling in
            Alcotest.(check bool) (spelling ^ ": JOHN itself excluded") false
              (List.mem "JOHN" (List.map (Database.entity_name db) exact)))
          [ "JOHN"; "john" ]);
    test "suggestions only propose entities with facts" (fun () ->
        let db = Paper_examples.music () in
        (* Intern a lonely near-miss entity with no facts. *)
        ignore (Database.entity db "JOHX");
        let suggested =
          Search.suggestions db "JOHM" |> List.map (Database.entity_name db)
        in
        Alcotest.(check bool) "john suggested" true (List.mem "JOHN" suggested);
        Alcotest.(check bool) "factless entity not suggested" false
          (List.mem "JOHX" suggested));
    test "suggestions survive a crowd of nearer factless names" (fun () ->
        let db = Paper_examples.music () in
        let suggested () =
          Search.suggestions db "JOHNXY" |> List.map (Database.entity_name db)
        in
        Alcotest.(check (list string)) "before the crowd" [ "JOHN" ] (suggested ());
        (* 26 interned names at distance 1, as a session's misspelled
           probes leave them; JOHN is at distance 2. *)
        for c = Char.code 'A' to Char.code 'Z' do
          ignore (Database.entity db ("JOHNXY" ^ String.make 1 (Char.chr c)))
        done;
        Alcotest.(check (list string)) "after the crowd" [ "JOHN" ] (suggested ()));
    test "fuzzy matches a full-matrix brute-force reference" (fun () ->
        let rng = Random.State.make [| 0x5ea7c4 |] in
        for _ = 1 to 12 do
          let db = Database.create () in
          (* Stems of 63 and 64 bytes straddle the kernel's range. *)
          let stems =
            [ random_string rng 63; random_string rng 64 ]
            @ List.init 4 (fun _ -> random_string rng (Random.State.int rng 81))
          in
          let stem () = List.nth stems (Random.State.int rng (List.length stems)) in
          let names =
            List.init 100 (fun _ ->
                let n = mutate rng (stem ()) (Random.State.int rng 5) in
                ignore (Database.entity db n);
                n)
          in
          for t = 1 to 15 do
            let target =
              match t mod 3 with
              | 0 -> mutate rng (List.nth names (Random.State.int rng 100)) (Random.State.int rng 4)
              | 1 -> String.map flip_case (List.nth names (Random.State.int rng 100))
              | _ -> mutate rng (stem ()) (Random.State.int rng 4)
            in
            let distances = reference_distances db target in
            List.iter
              (fun max_distance ->
                List.iter
                  (fun limit ->
                    let got = Search.fuzzy ~limit ~max_distance db target in
                    let expected = reference_fuzzy distances ~limit ~max_distance in
                    if got <> expected then
                      Alcotest.failf "fuzzy %S ~limit:%d ~max_distance:%d: [%s], expected [%s]"
                        target limit max_distance (show db got) (show db expected);
                    List.iter
                      (fun e ->
                        if
                          String.lowercase_ascii (Database.entity_name db e)
                          = String.lowercase_ascii target
                        then Alcotest.failf "fuzzy %S returned its exact match" target)
                      got)
                  [ 1; 3; max_int ])
              [ 0; 1; 2; 3 ]
          done
        done);
    test "probing renders a did-you-mean line (EX7 upgraded)" (fun () ->
        let db = Paper_examples.music () in
        let query = Query_parser.parse db "(JOHM, LIKES, ?x)" in
        let menu = Probing.render_menu db query (Probing.probe db query) in
        Alcotest.(check bool) "diagnosis" true
          (contains menu "no such database entities: JOHM");
        Alcotest.(check bool) "suggestion" true (contains menu "Did you mean JOHN?"));
    test "shell find command" (fun () ->
        let shell = Lsdb_shell.Shell.create (Paper_examples.music ()) in
        let out = Lsdb_shell.Shell.execute shell "find MOZ" in
        Alcotest.(check bool) "mozart" true (contains out "MOZART");
        let out = Lsdb_shell.Shell.execute shell "find qqqq" in
        Alcotest.(check bool) "no hit message" true (contains out "no entity name"));
  ]
