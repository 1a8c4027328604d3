(* Seeded inputs: the heap's facts and the scripted command stream.

   Everything here is a pure function of (seed, n, workload); the
   program under test only ever sees the facts (through the persisted
   heap) and the command lines (through the shell). *)

open Lsdb_workload

type heap = {
  facts : (string * string * string) array;  (* distinct, generation order *)
  employees : string array;
  departments : string array;
  books : string array;
  authors : string array;
  subjects : string array;
}

let heap ~seed ~n =
  let rng = Rng.create seed in
  let org =
    Org_gen.generate
      ~params:{ Org_gen.default_params with employees = n }
      (Rng.split rng)
  in
  let cit =
    Citation_gen.generate
      ~params:{ Citation_gen.default_params with books = n; authors = max 1 (n / 5) }
      (Rng.split rng)
  in
  let seen = Hashtbl.create (16 * n) in
  let facts =
    List.filter
      (fun f ->
        if Hashtbl.mem seen f then false
        else begin
          Hashtbl.add seen f ();
          true
        end)
      (org.Org_gen.facts @ cit.Citation_gen.facts)
  in
  let subjects =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, r, t) -> if r = "ABOUT" then Some t else None)
         cit.Citation_gen.facts)
  in
  {
    facts = Array.of_list facts;
    employees = org.Org_gen.employee_names;
    departments = org.Org_gen.department_names;
    books = cit.Citation_gen.book_names;
    authors = cit.Citation_gen.author_names;
    subjects = Array.of_list subjects;
  }

(* The facts the log tail holds: a seeded tenth of the heap; the rest
   goes into the snapshot. *)
let tail_mask ~seed (h : heap) =
  let rng = Rng.create (seed lxor 0x7a11) in
  Array.map (fun _ -> Rng.int rng 10 = 0) h.facts

(* ---- command stream ------------------------------------------------ *)

type kind = Nav | T | Try | Q | Assoc | Probe

let kind_name = function
  | Nav -> "nav"
  | T -> "t"
  | Try -> "try"
  | Q -> "q"
  | Assoc -> "assoc"
  | Probe -> "probe"

let kind_of_name = function
  | "nav" -> Nav
  | "t" -> T
  | "try" -> Try
  | "q" -> Q
  | "assoc" -> Assoc
  | "probe" -> Probe
  | s -> invalid_arg ("unknown read kind " ^ s)

(* One operation: a read, or a write followed by the read that must
   observe it ([expect] is that read's exact output). *)
type op =
  | Read of kind * string
  | Write of { write : string; expect_write : string; verify : string; expect : string }

type role = Employee | Department | Book | Author | Subject

let to_line = function
  | Read (k, cmd) -> String.concat "\t" [ "R"; kind_name k; cmd ]
  | Write { write; expect_write; verify; expect } ->
      String.concat "\t" [ "W"; write; expect_write; verify; expect ]

let of_line line =
  match String.split_on_char '\t' line with
  | [ "R"; k; cmd ] -> Read (kind_of_name k, cmd)
  | [ "W"; write; expect_write; verify; expect ] ->
      Write { write; expect_write; verify; expect }
  | _ -> invalid_arg ("malformed stream line: " ^ line)

let fact_text (s, r, t) = Printf.sprintf "(%s, %s, %s)" s r t

(* The entity universe in Zipf rank order. Roles are interleaved in a
   fixed pattern proportional to their sizes, so every seed puts the
   same role at each rank (the head of the distribution has the same
   make-up); the seed picks which entity of that role sits there. *)
let universe rng (h : heap) =
  let pools =
    [|
      (Employee, Rng.shuffle rng (Array.to_list h.employees));
      (Department, Rng.shuffle rng (Array.to_list h.departments));
      (Book, Rng.shuffle rng (Array.to_list h.books));
      (Author, Rng.shuffle rng (Array.to_list h.authors));
      (Subject, Rng.shuffle rng (Array.to_list h.subjects));
    |]
  in
  let sizes = Array.map (fun (_, l) -> float_of_int (List.length l)) pools in
  let total = Array.fold_left ( +. ) 0. sizes in
  let left = Array.map snd pools in
  let taken = Array.make (Array.length pools) 0 in
  Array.init (int_of_float total) (fun rank ->
      (* The role furthest behind its share of the ranks so far. *)
      let best = ref (-1) and best_gap = ref neg_infinity in
      Array.iteri
        (fun i size ->
          if left.(i) <> [] then
            let gap = (size /. total *. float_of_int (rank + 1)) -. float_of_int taken.(i) in
            if gap > !best_gap then begin
              best := i;
              best_gap := gap
            end)
        sizes;
      let i = !best in
      match left.(i) with
      | name :: rest ->
          left.(i) <- rest;
          taken.(i) <- taken.(i) + 1;
          (name, fst pools.(i))
      | [] -> assert false)

(* Forward adjacency over the non-membership base facts: the endpoint
   of a short walk is an entity the (X, *, Y) association search can
   actually reach through composed relationships. *)
let adjacency (h : heap) =
  let adj = Hashtbl.create (Array.length h.facts) in
  Array.iter
    (fun (s, r, t) ->
      if r <> "in" && r <> "isa" && r <> "inv" then
        Hashtbl.replace adj s (t :: Option.value ~default:[] (Hashtbl.find_opt adj s)))
    h.facts;
  adj

let rec walk rng adj e hops =
  if hops = 0 then Some e
  else
    match Hashtbl.find_opt adj e with
    | Some (_ :: _ as next) -> walk rng adj (Rng.choose rng next) (hops - 1)
    | _ -> None

(* A probe that fails as written and is retracted (§5.2). Every block
   of eight probes, in a seeded order, holds seven that misspell the
   drawn entity (Query_gen.misspell) and one class query in
   Query_gen.class_query's (class, rel, ?z) shape: a class too general to
   hold the relationship, which retraction specializes until it
   succeeds. Class queries alternate between the two domains. *)
type probe_slot = Misspelled | Class

let probe_block = Class :: List.init 7 (fun _ -> Misspelled)
let class_queries = [| ("MANAGER", "MANAGER"); ("TOPIC", "in") |]

(* [cycler rng block] deals [block]'s elements in seeded order, reshuffled
   each time it runs out. *)
let cycler rng block =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := Array.of_list (Rng.shuffle rng block);
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

let alternator queries =
  let i = ref (-1) in
  fun () ->
    incr i;
    queries.(!i mod Array.length queries)

let failing_probe rng known ~slot ~class_query (name, role) =
  match slot with
  | Misspelled ->
      let rec damage tries =
        let m = Query_gen.misspell rng name in
        if not (known m) || tries = 0 then m else damage (tries - 1)
      in
      let rel =
        match role with
        | Employee -> "WORKS-FOR"
        | Department -> "HEADED-BY"
        | Book -> "ABOUT"
        | Author -> "WROTE"
        | Subject -> "isa"
      in
      Printf.sprintf "probe (%s, %s, ?x)" (damage 16) rel
  | Class ->
      let cls, rel = class_query () in
      Printf.sprintf "probe (%s, %s, ?z)" cls rel

let read_command rng adj uni probe kind ((name, role) as ent) =
  match kind with
  | Nav -> Printf.sprintf "nav %s" name
  | Try -> Printf.sprintf "try %s" name
  | T -> (
      let pick a b = if Rng.bool rng then a else b in
      match role with
      | Employee -> pick (Printf.sprintf "t (%s, WORKS-FOR, *)" name)
                      (Printf.sprintf "t (?x, MANAGER, %s)" name)
      | Department -> pick (Printf.sprintf "t (%s, HEADED-BY, *)" name)
                        (Printf.sprintf "t (?e, WORKS-FOR, %s)" name)
      | Book -> pick (Printf.sprintf "t (?b, CITES, %s)" name)
                  (Printf.sprintf "t (%s, ?r, ?x)" name)
      | Author -> Printf.sprintf "t (%s, WROTE, *)" name
      | Subject -> Printf.sprintf "t (?b, ABOUT, %s)" name)
  | Q -> (
      (* Conjunctions around the entity, or through the 20 departments:
         after the block's nav their cones are warm in demand mode, so
         q's latency does not split between warm and cold by role. *)
      match role with
      | Employee -> Printf.sprintf "q (%s, WORKS-FOR, ?d) & (?d, HEADED-BY, ?m)" name
      | Department -> Printf.sprintf "q (%s, HEADED-BY, ?m) & (?e, WORKS-FOR, %s)" name name
      | Book -> Printf.sprintf "q (%s, ABOUT, ?s) & (?a, WROTE, %s)" name name
      | Author -> Printf.sprintf "q (%s, WROTE, ?b) & (%s, in, ?c)" name name
      | Subject -> Printf.sprintf "q (?b, ABOUT, %s) & (%s, isa, ?t)" name name)
  | Assoc ->
      let target =
        match walk rng adj name (2 + Rng.int rng 2) with
        | Some t when t <> name -> t
        | _ ->
            let rec other () =
              let t, _ = Rng.choose_array rng uni in
              if t <> name then t else other ()
            in
            other ()
      in
      Printf.sprintf "assoc %s %s" name target
  | Probe -> probe ent

(* Writes, half inserts of facts the heap does not hold, half removes of
   base facts it does (each at most once). Every family written here is
   one no rule derives, so after a remove the fact is gone from the
   closure and the verifying query must answer false. *)
let write_source rng (h : heap) =
  let base = Hashtbl.create (Array.length h.facts) in
  Array.iter (fun f -> Hashtbl.replace base f ()) h.facts;
  let removable =
    Array.of_list
      (Rng.shuffle rng
         (List.filter
            (fun (_, r, _) -> r = "CITES" || r = "WROTE" || r = "ABOUT" || r = "EARNS")
            (Array.to_list h.facts)))
  in
  let next_remove = ref 0 in
  let remove_turn = cycler rng [ true; false ] in
  let inserted = Hashtbl.create 1024 in
  let rec fresh () =
    let f =
      match Rng.int rng 3 with
      | 0 -> (Rng.choose_array rng h.books, "CITES", Rng.choose_array rng h.books)
      | 1 -> (Rng.choose_array rng h.authors, "WROTE", Rng.choose_array rng h.books)
      | _ -> (Rng.choose_array rng h.books, "ABOUT", Rng.choose_array rng h.subjects)
    in
    let s, _, t = f in
    if s = t || Hashtbl.mem base f || Hashtbl.mem inserted f then fresh ()
    else begin
      Hashtbl.add inserted f ();
      f
    end
  in
  fun () ->
    if remove_turn () && !next_remove < Array.length removable then begin
      let f = removable.(!next_remove) in
      incr next_remove;
      let text = fact_text f in
      Write
        { write = "remove " ^ text; expect_write = "removed"; verify = "q " ^ text;
          expect = "false" }
    end
    else
      let text = fact_text (fresh ()) in
      Write
        { write = "insert " ^ text; expect_write = "inserted"; verify = "q " ^ text;
          expect = "true" }

(* [length] operations. Reads come in blocks of six, one of each kind,
   on one entity: the user navigates to it, then runs the other five
   kinds on it in a seeded order. Block b's role is the role at rank
   b (mod the universe) — a fixed, size-proportional sequence, so every
   run of the same length has the same mix of roles, and so of command
   shapes. The entity is drawn Zipf(1.0) over that role's entities in
   rank order ([`Zipf]) or uniformly ([`Uniform]). With [writes_every] =
   k > 0, every block of k operations holds one write, in a seeded
   position. *)
let stream ~seed (h : heap) ~length ~draw ~writes_every =
  let rng = Rng.create (seed lxor 0x5e551) in
  let uni = universe rng h in
  let adj = adjacency h in
  let names = Hashtbl.create (Array.length uni) in
  Array.iter (fun (n, _) -> Hashtbl.replace names n ()) uni;
  let known n = Hashtbl.mem names n in
  let members role =
    Array.of_list (List.filter (fun (_, r) -> r = role) (Array.to_list uni))
  in
  let pools = Hashtbl.create 5 in
  Array.iter
    (fun (_, role) ->
      if not (Hashtbl.mem pools role) then
        let m = members role in
        Hashtbl.add pools role (m, Zipf.create ~n:(Array.length m) ~s:1.0))
    uni;
  let blocks = ref 0 in
  let draw_entity () =
    let _, role = uni.(!blocks mod Array.length uni) in
    incr blocks;
    let m, zipf = Hashtbl.find pools role in
    match draw with
    | `Zipf -> m.(Zipf.sample zipf rng)
    | `Uniform -> Rng.choose_array rng m
  in
  let next_write = write_source rng h in
  let next_slot = cycler rng probe_block in
  let class_query = alternator class_queries in
  let probe ent = failing_probe rng known ~slot:(next_slot ()) ~class_query ent in
  (* The first block is on the most popular entity: every process's
     first command navigates there. *)
  let block = ref [ Nav ] and ent = ref uni.(0) in
  incr blocks;
  let next_read () =
    if !block = [] then begin
      ent := draw_entity ();
      block := Nav :: Rng.shuffle rng [ T; Try; Q; Assoc; Probe ]
    end;
    match !block with
    | k :: rest ->
        block := rest;
        Read (k, read_command rng adj uni probe k !ent)
    | [] -> assert false
  in
  let is_write =
    if writes_every <= 0 then fun () -> false
    else cycler rng (true :: List.init (writes_every - 1) (fun _ -> false))
  in
  Array.init length (fun _ -> if is_write () then next_write () else next_read ())
