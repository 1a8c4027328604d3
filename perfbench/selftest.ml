(* Test of the benchmark's correctness checks on a tiny heap: a clean
   session counts no failure, and each check counts a deliberately wrong
   answer or closure as one. *)

open Perfbench
module Database = Lsdb.Database

let seed = 7
let heap = Gen.heap ~seed ~n:60
let base = "selftest_heap"
let () = Heap_dir.persist ~seed heap base
let reads = Gen.stream ~seed heap ~length:400 ~draw:`Zipf ~writes_every:0
let edits = Gen.stream ~seed heap ~length:400 ~draw:`Uniform ~writes_every:4

let first_nav ops =
  let rec go i = match ops.(i) with Gen.Read (Gen.Nav, _) -> i | _ -> go (i + 1) in
  go 0

let session ?(mode = Database.Eager) ?(check = false) ?(closure = false) ?(traced = false)
    ?(reference = Hashtbl.create 1) ?inject ops =
  Heap_dir.copy base "selftest_db";
  if check then Heap_dir.copy base "selftest_check";
  Session.run
    {
      Session.dir = "selftest_db"; mode; ops; first = first_nav ops; start = first_nav ops + 1;
      stop = Array.length ops;
      count = 80; traced;
      check_dir = (if check then Some "selftest_check" else None);
      check_closure = closure; reference; inject; spans_out = None;
    }

let digests (r : Session.result) =
  let t = Hashtbl.create 128 in
  List.iter
    (fun (x : Session.record) -> Hashtbl.replace t x.index x.digest)
    (r.first_answer :: Array.to_list r.records);
  t

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let () =
  let clean = session ~check:true reads in
  expect "eager reads agree with demand answers" (Session.failures clean = 0);
  let demand = session ~mode:Database.Demand ~check:true reads in
  expect "demand reads agree with eager answers" (Session.failures demand = 0);
  expect "a failing read is counted"
    (Session.failures (session ~inject:Session.Failing_read reads) = 1);
  expect "a wrong engine answer is counted"
    (Session.failures (session ~check:true ~inject:Session.Wrong_engine_answer reads) = 1);
  let edit = session ~closure:true edits in
  expect "edit session: writes visible, closure equals recompute"
    (Session.failures edit = 0
    && Array.exists (fun (x : Session.record) -> x.label = "write") edit.records);
  expect "a lost write is counted"
    (Session.failures (session ~inject:Session.Lost_write edits) >= 1);
  expect "a wrong closure is counted"
    ((session ~closure:true ~inject:Session.Wrong_closure edits).checks_failed = 1);
  List.iter
    (fun (what, ops) ->
      let plain = session ops in
      let reference = digests plain in
      let traced = session ~traced:true ~reference ops in
      expect (what ^ ": traced answers equal untraced") (Session.failures traced = 0);
      expect (what ^ ": traced layers reported") (traced.layers <> []);
      expect (what ^ ": a traced mismatch is counted")
        (Session.failures (session ~traced:true ~reference ~inject:Session.Traced_mismatch ops)
        = 1))
    [ ("reads", reads); ("edits", edits) ];
  List.iter Heap_dir.rm_rf [ base; "selftest_db"; "selftest_check" ];
  if !failures > 0 then exit 1
