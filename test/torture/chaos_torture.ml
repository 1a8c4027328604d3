(* Chaos-torture driver for the query governor: seeded random workloads
   run twice — once ungoverned (the oracle), once with per-query
   governors carrying randomly tight budgets and cancellations — plus a
   storage leg with armed transient faults under the retry policy.

   Invariants, per step:

   - when the step's governor never tripped, its output is byte-identical
     to the oracle's;
   - when it tripped, its answers are a subset of the oracle's (partial
     results are sound, never invented);
   - mutations land identically in both runs;
   - in the storage leg, every acked op survives a one-shot transient
     fault exactly once (retry resends the same bytes; the log holds no
     duplicate and drops nothing);
   - in the input leg, byte-flipped, truncated and spliced queries,
     templates and fact files end in a typed parse error or a valid
     result within a bounded time, never in another exception.

   Exit status 0 when every case holds, 1 otherwise. *)

open Lsdb
module Governor = Lsdb_exec.Governor
module Rng = Lsdb_workload.Rng

let failures = ref 0
let cases = ref 0

let failf case fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %-32s %s\n%!" case msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Workload generation                                                 *)

(* Steps carry names, not entity ids, so one pre-generated script can be
   executed against independent database copies. *)
type step =
  | Match of string option * string option * string option
  | QueryText of string
  | Ins of string * string * string
  | Rem of string * string * string

type budget =
  | Roomy  (** governor installed, nothing armed: must be byte-identical *)
  | Facts of int
  | Work of int
  | Deadline of float
  | Cancel  (** cancelled before the step runs: simulated Ctrl-C *)

let base_db rng =
  Lsdb_workload.University_gen.to_database
    (Lsdb_workload.University_gen.generate
       ~params:
         {
           Lsdb_workload.University_gen.students = 15 + Rng.int rng 25;
           courses = 4 + Rng.int rng 6;
           instructors = 2 + Rng.int rng 4;
           enrollments_per_student = 2 + Rng.int rng 2;
         }
       rng)

let gen_script db rng =
  let facts = Array.of_list (Database.facts db) in
  let symtab = Database.symtab db in
  let random_names () = Fact.names symtab facts.(Rng.int rng (Array.length facts)) in
  let opt name = if Rng.bool rng then Some name else None in
  let steps = ref [] in
  for i = 1 to 12 do
    let budget =
      match Rng.int rng 6 with
      | 0 | 1 -> Roomy
      | 2 -> Facts (1 + Rng.int rng 40)
      | 3 -> Work (20 + Rng.int rng 2000)
      | 4 -> Deadline (0.001 +. (Rng.float rng *. 0.2))
      | _ -> Cancel
    in
    let step =
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let s, r, t = random_names () in
          Match (opt s, opt r, opt t)
      | 4 | 5 ->
          let s, r, _ = random_names () in
          QueryText (Printf.sprintf "(%s, %s, ?x)" s r)
      | 6 ->
          let _, r, t = random_names () in
          QueryText (Printf.sprintf "(?x, %s, %s) & (?x, in, ?c)" r t)
      | 7 ->
          let s, r, t = random_names () in
          Ins (s ^ "-CHAOS" ^ string_of_int i, r, t)
      | _ ->
          let s, r, t = random_names () in
          Rem (s, r, t)
    in
    steps := (step, budget) :: !steps
  done;
  List.rev !steps

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* A step's observable output: one string per answer row/fact, in
   enumeration order. Mutations observe the applied/ignored bool so both
   runs are checked to mutate identically. *)
let run_step db step =
  let symtab = Database.symtab db in
  let show f =
    let s, r, t = Fact.names symtab f in
    String.concat "," [ s; r; t ]
  in
  match step with
  | Match (s, r, t) ->
      let find n = Option.bind n (Database.find_entity db) in
      let pat = Store.{ s = find s; r = find r; t = find t } in
      List.map show (Match_layer.match_list db pat)
  | QueryText text -> (
      match Query_parser.parse db text with
      | query ->
          let answer = Eval.eval db query in
          List.map (String.concat ",")
            (Eval.rows_named symtab answer)
      | exception Query_parser.Parse_error _ -> [ "parse-error" ])
  | Ins (s, r, t) -> [ Printf.sprintf "ins:%b" (Database.insert_names db s r t) ]
  | Rem (s, r, t) -> [ Printf.sprintf "rem:%b" (Database.remove_names db s r t) ]

let is_query = function Match _ | QueryText _ -> true | Ins _ | Rem _ -> false

(* tripped = None for mutations and the oracle run. *)
let run_all ~governed db script =
  List.map
    (fun (step, budget) ->
      if not (governed && is_query step) then (run_step db step, None)
      else begin
        let gov =
          match budget with
          | Roomy | Cancel -> Governor.create ()
          | Facts n -> Governor.create ~max_facts:n ()
          | Work n -> Governor.create ~max_work:n ()
          | Deadline ms -> Governor.create ~deadline_ms:ms ()
        in
        if budget = Cancel then Governor.cancel gov;
        Database.set_governor db (Some gov);
        let result =
          Fun.protect
            ~finally:(fun () -> Database.set_governor db None)
            (fun () -> run_step db step)
        in
        (result, Governor.tripped gov)
      end)
    script

let subset sub super =
  let tbl = Hashtbl.create 64 in
  List.iter (fun row -> Hashtbl.replace tbl row ()) super;
  List.for_all (Hashtbl.mem tbl) sub

let eval_chaos seed =
  let rng = Rng.create seed in
  let db0 = base_db rng in
  Database.set_closure_mode db0
    (if seed mod 2 = 0 then Database.Eager else Database.Demand);
  (* Rotate the heap layout too: governor trips and cancellations must
     stay sound on every shard count (1, 2, 4, 8 across the seeds). *)
  Database.set_shards db0 (1 lsl (seed mod 4));
  let script = gen_script db0 rng in
  let oracle = run_all ~governed:false (Database.copy db0) script in
  let governed = run_all ~governed:true (Database.copy db0) script in
  List.iteri
    (fun i ((expected, _), ((got, tripped), (step, budget))) ->
      incr cases;
      let case = Printf.sprintf "seed%d/step%d" seed i in
      match (tripped, step) with
      | None, _ ->
          (* Untripped (or a mutation): byte-identity with the oracle. *)
          if got <> expected then
            failf case "untripped output diverged (%d vs %d rows, budget %s)"
              (List.length got) (List.length expected)
              (match budget with
              | Roomy -> "roomy"
              | Cancel -> "cancel"
              | Facts n -> Printf.sprintf "facts=%d" n
              | Work n -> Printf.sprintf "work=%d" n
              | Deadline ms -> Printf.sprintf "deadline=%gms" ms)
      | Some _, (Ins _ | Rem _) -> failf case "mutation step reported a trip"
      | Some reason, _ ->
          if not (subset got expected) then
            failf case "tripped (%s) answers are not a subset (%d rows vs %d)"
              (Governor.reason_string reason)
              (List.length got) (List.length expected))
    (List.combine oracle (List.combine governed script))

(* ------------------------------------------------------------------ *)
(* Storage leg: transient faults under the retry policy                *)

let storage_chaos seed =
  let open Lsdb_storage in
  incr cases;
  let case = Printf.sprintf "seed%d/storage" seed in
  let rng = Rng.create ((seed * 7919) + 13) in
  let vfs = Vfs.faulty () in
  let policy = { Governor.Retry.attempts = 4; base_delay_s = 0.; max_delay_s = 0. } in
  let p = Persistent.open_dir ~vfs ~retry:policy "/db" in
  let acked = ref [] in
  (try
     for i = 1 to 40 do
       (* Periodically arm a one-shot transient fault on an upcoming
          write or fsync; the retry policy must absorb every one. *)
       if Rng.int rng 3 = 0 then
         if Rng.bool rng then
           Vfs.arm vfs ~site:"log.write" ~after:(Rng.int rng 2) Vfs.No_space
         else Vfs.arm vfs ~site:"log.fsync" Vfs.Fsync_raises;
       let s = Printf.sprintf "S%d" (Rng.int rng 12) in
       let r = Printf.sprintf "R%d" (Rng.int rng 4) in
       let t = Printf.sprintf "T%d" (Rng.int rng 12) in
       if Rng.int rng 5 = 0 then begin
         let db = Persistent.database p in
         if Persistent.remove p (Fact.of_names (Database.symtab db) s r t) then
           acked := Log.Remove (s, r, t) :: !acked
       end
       else if Persistent.insert_names p s r t then
         acked := Log.Insert (s, r, t) :: !acked;
       if i mod 9 = 0 then Persistent.sync p
     done;
     Persistent.sync p;
     Persistent.close p
   with e -> failf case "workload died: %s" (Printexc.to_string e));
  let acked = List.rev !acked in
  (* Every acked op is in the log exactly once, in order: a retried
     flush resent identical bytes, duplicating and dropping nothing. *)
  let logged = Log.read_all ~vfs "/db/log.lsdb" in
  if
    List.length logged <> List.length acked
    || not (List.for_all2 Log.op_equal logged acked)
  then
    failf case "log does not equal the acked ops (%d logged, %d acked)"
      (List.length logged) (List.length acked);
  (* And a clean reopen replays to the same state. *)
  match Persistent.open_dir ~vfs "/db" with
  | exception Failure msg -> failf case "reopen refused: %s" msg
  | p ->
      let replayed = Persistent.database p in
      let fresh = Database.create () in
      List.iter (Log.apply fresh) acked;
      let signature db =
        List.sort compare
          (List.map (Fact.names (Database.symtab db)) (Database.facts db))
      in
      if signature replayed <> signature fresh then
        failf case "recovered state diverges from the acked ops";
      Persistent.close p

(* ------------------------------------------------------------------ *)
(* Input leg: seeded mutation fuzzing of the text front ends           *)

(* Valid inputs to mutate: the paper's queries (§2.7, §5.2, §6.1) and
   the saved form of every paper database. *)
let query_corpus =
  [
    "(JOHN, *, *)";
    "(JOHN, LIKES, ?x)";
    "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)";
    "(?x, in, QUARTERBACK) & (?x, ATTENDED, USC)";
    "(?x, in, BOOK) & (?x, CITES, ?x)";
    "(?x, in, BOOK) & exists y . (?x, AUTHOR, ?y) & (?y, in, PERSON) & (?y, neq, ALICE)";
    "(?who, in, EMPLOYEE) & exists s . (?who, EARNS, ?s) & (?s, gt, 20000)";
    "((A, R, ?x) | (B, R, ?x)) & (C, R, ?x)";
    "forall x . (?x, R, ?y)";
    "(\"PC#9-WAM\", COMPOSED-BY, ?c) ∧ ∃ p . (?c, in, ?p)";
  ]

let template_corpus =
  [ "(JOHN, *, *)"; "(?x, EARNS, ?s)"; "(PC#9-WAM, COMPOSED-BY, MOZART)"; "(\"a b\", R, ?t)" ]

let fact_corpus =
  List.map
    (fun make -> Fact_file.save_string (make ()))
    Paper_examples.[ music; organization; campus; library; payroll ]
  @ [ "class TOTAL-NUMBER\nlimit 3\nrule r: (?x, in, A) => (?x, in, B)\nexclude r\n(X, in, A)\n" ]

let mutate rng corpus input =
  let n = String.length input in
  match Rng.int rng 3 with
  | 0 ->
      (* Byte flips: overwrite a few positions with arbitrary bytes. *)
      let b = Bytes.of_string input in
      if n > 0 then
        for _ = 0 to Rng.int rng 4 do
          Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
        done;
      Bytes.to_string b
  | 1 -> String.sub input 0 (Rng.int rng (n + 1))  (* truncation *)
  | _ ->
      (* Splice: a prefix of this input onto a suffix of another. *)
      let other = Rng.choose rng corpus in
      let m = String.length other in
      let cut = Rng.int rng (m + 1) in
      String.sub input 0 (Rng.int rng (n + 1)) ^ String.sub other cut (m - cut)

(* CPU-time bound per input: these are sub-millisecond parses, so a
   second means a pathological (quadratic or looping) path. *)
let fuzz_bound_s = 1.0

(* Failing inputs are printed up to their first 160 bytes. *)
let shown input = if String.length input <= 160 then input else String.sub input 0 160 ^ "…"

(* Mutated inputs per entry point per seed. *)
let fuzz_mutations = 200

(* [valid]: an unmutated corpus input, which must also parse. *)
let fuzz_one ?(valid = false) case ~typed f input =
  incr cases;
  let started = Sys.time () in
  (match f input with
  | () -> ()
  | exception e when typed e && not valid -> ()
  | exception e ->
      failf case "%s %s on %S"
        (if typed e then "rejected valid input:" else "untyped")
        (Printexc.to_string e) (shown input));
  let took = Sys.time () -. started in
  if took > fuzz_bound_s then failf case "took %.2f s on %S" took (shown input)

let entry_points =
  let db = Database.create () in
  let parse_error = function Query_parser.Parse_error _ -> true | _ -> false in
  [
    ("parse", query_corpus, parse_error,
     fun text -> ignore (Query_parser.parse db text : Query.t));
    ("parse_template", template_corpus, parse_error,
     fun text -> ignore (Query_parser.parse_template db text : Template.t));
    ("load_string", fact_corpus,
     (function Fact_file.Syntax_error _ -> true | _ -> false),
     fun text -> ignore (Fact_file.load_string (Database.create ()) text : int));
  ]

let fuzz_inputs seed =
  let rng = Rng.create ((seed * 104_729) + 7) in
  List.iter
    (fun (name, corpus, typed, f) ->
      for i = 1 to fuzz_mutations do
        let input = ref (Rng.choose rng corpus) in
        for _ = 0 to Rng.int rng 3 do
          input := mutate rng corpus !input
        done;
        fuzz_one (Printf.sprintf "seed%d/%s/mut%d" seed name i) ~typed f !input
      done)
    entry_points

let () =
  List.iter
    (fun (name, corpus, typed, f) ->
      List.iteri
        (fun i input ->
          fuzz_one ~valid:true (Printf.sprintf "%s/valid%d" name i) ~typed f input)
        corpus)
    entry_points;
  let seeds = List.init 10 (fun i -> i + 1) in
  List.iter
    (fun seed ->
      eval_chaos seed;
      storage_chaos seed;
      fuzz_inputs seed)
    seeds;
  Printf.printf "chaos-torture: %d case(s), %d failure(s)\n%!" !cases !failures;
  exit (if !failures = 0 then 0 else 1)
