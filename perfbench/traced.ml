(* The traced run's command interpreter. For every command the stream
   holds, it makes the same public-layer calls [Lsdb_shell.Shell.execute]
   makes (and the helpers it calls: Operators.try_render,
   Navigation.render_*, Integrity.insert_checked), in the same order,
   producing the same output text — but with a span around each call.
   The untraced run goes through the shell itself; comparing the two
   runs' outputs command by command is what keeps this copy honest. *)

open Lsdb
module Governor = Lsdb_exec.Governor
module Log = Lsdb_storage.Log

type t = {
  db : Database.t;
  sp : Spans.t;
  nav : Navigation.session;
  log : Log.t;
  (* Rows returned by the Eval.eval calls made here and the
     [lsdb_eval_candidates_total] moved inside those calls. *)
  mutable eval_rows : int;
  mutable eval_candidates : int;
  mutable render_bytes : int;
  mutable compute_minor_words : float;  (* allocated while computing the closure *)
}

let eval_candidates = Lsdb_obs.Metrics.counter "lsdb_eval_candidates_total"

let create db sp log =
  { db; sp; nav = Navigation.start db; log; eval_rows = 0; eval_candidates = 0;
    render_bytes = 0; compute_minor_words = 0. }

(* Start the per-session counts afresh (after the first answer). *)
let reset_counts t =
  t.eval_rows <- 0;
  t.eval_candidates <- 0;
  t.render_bytes <- 0

let span t name f = Spans.span t.sp name f
let neighborhood_span = "navigation.neighborhood"
let render_span = "navigation.render"

let render t f =
  let s = span t render_span f in
  t.render_bytes <- t.render_bytes + String.length s;
  s

let eval t ?opts query =
  let before = Lsdb_obs.Metrics.counter_value eval_candidates in
  let answer = span t "eval" (fun () -> Eval.eval ?opts t.db query) in
  t.eval_candidates <-
    t.eval_candidates + Lsdb_obs.Metrics.counter_value eval_candidates - before;
  t.eval_rows <- t.eval_rows + List.length answer.Eval.rows;
  answer

(* Eager mode folds pending work into the closure on first access; do
   that access explicitly so its cost lands in a closure span. *)
let force_closure t =
  if Database.closure_mode t.db = Database.Eager then
    if Database.closure_computations t.db = 0 then begin
      let before = Gc.minor_words () in
      ignore (span t "closure.compute" (fun () -> Database.closure t.db));
      t.compute_minor_words <- Gc.minor_words () -. before
    end
    else ignore (span t "closure.maintain" (fun () -> Database.closure t.db))

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* Shell.answer_text *)
let answer_text db answer =
  match answer.Eval.vars with
  | [] -> if answer.Eval.rows <> [] then "true" else "false"
  | vars ->
      if answer.Eval.rows = [] then "(no answers)"
      else Pretty.grid ~headers:vars (Eval.rows_named (Database.symtab db) answer)

(* Navigation.render_source_table *)
let render_source_table t e =
  let symtab = Database.symtab t.db in
  let nbhd = span t neighborhood_span (fun () -> Navigation.neighborhood t.db e) in
  render t (fun () ->
      let name = Symtab.name symtab in
      let cols =
        List.map
          (fun (r, others) -> (name r, List.map name others))
          nbhd.Navigation.as_source
      in
      Pretty.columns ~title:(Printf.sprintf "%s, *, *" (name e)) cols)

(* Operators.try_render *)
let try_render t name =
  match Database.find_entity t.db name with
  | None -> Printf.sprintf "try(%s): no such database entity" name
  | Some e -> (
      let facts = span t neighborhood_span (fun () -> Navigation.try_entity t.db e) in
      render t @@ fun () ->
      match facts with
      | [] -> Printf.sprintf "try(%s): no facts include this entity" name
      | facts ->
          Printf.sprintf "try(%s):\n%s" name (Pretty.facts (Database.symtab t.db) facts))

(* Navigation.render_associations, through associations_detailed *)
let render_associations t ~src ~tgt =
  let db = t.db in
  let symtab = Database.symtab db in
  let name = Symtab.name symtab in
  let opts = Match_layer.nav_opts in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let emit r =
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      out := r :: !out
    end
  in
  span t neighborhood_span (fun () ->
      Match_layer.candidates
        ~opts:{ opts with Match_layer.composition = false }
        db (Store.pattern ~s:src ~t:tgt ())
        (fun fact -> emit fact.Fact.r));
  let truncated =
    if opts.Match_layer.composition then begin
      let result = span t "composition.search" (fun () -> Composition.search db ~src ~tgt) in
      List.iter
        (fun (p : Composition.path) -> emit (Composition.compose_name symtab p.chain))
        result.Composition.paths;
      result.Composition.truncated
    end
    else false
  in
  let rels = List.rev !out in
  render t (fun () ->
      let table =
        Pretty.column
          ~title:(Printf.sprintf "%s, *, %s" (name src) (name tgt))
          (List.map name rels)
      in
      if truncated then table ^ Navigation.truncation_warning else table)

(* Navigation.render_template, with its template_truncated check *)
let render_template t tpl =
  let db = t.db in
  let opts = Match_layer.nav_opts in
  let symtab = Database.symtab db in
  let title = Template.to_string symtab tpl in
  let answer = eval t ~opts (Query.atom tpl) in
  let rendered =
    render t @@ fun () ->
    match answer.Eval.vars with
    | [] -> Pretty.column ~title [ (if answer.Eval.rows <> [] then "true" else "false") ]
    | [ _ ] ->
        let cells =
          Eval.column answer |> List.map (Symtab.name symtab) |> List.sort String.compare
        in
        Pretty.column ~title cells
    | [ v1; v2 ] ->
        let groups = Hashtbl.create 16 in
        List.iter
          (fun row ->
            let key = Symtab.name symtab row.(0) in
            let value = Symtab.name symtab row.(1) in
            Hashtbl.replace groups key
              (value :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
          answer.Eval.rows;
        let rows =
          Hashtbl.fold
            (fun key values acc ->
              [ key; String.concat ", " (List.sort String.compare values) ] :: acc)
            groups []
          |> List.sort compare
        in
        Pretty.grid ~title ~headers:[ v1; v2 ] rows
    | vars -> Pretty.grid ~title ~headers:vars (List.sort compare (Eval.rows_named symtab answer))
  in
  let truncated =
    match (tpl.Template.src, tpl.Template.rel, tpl.Template.tgt) with
    | Template.Ent src, Template.Var _, Template.Ent tgt
      when opts.Match_layer.composition && not (Entity.equal src tgt) ->
        (span t "composition.search" (fun () -> Composition.search db ~src ~tgt))
          .Composition.truncated
    | _ -> false
  in
  if truncated then rendered ^ Navigation.truncation_warning else rendered

(* Shell.parse_fact *)
let parse_fact t out text =
  match span t "parse" (fun () -> Query_parser.parse_template t.db text) with
  | tpl -> (
      match Template.to_fact tpl with
      | Some fact -> Some fact
      | None ->
          Buffer.add_string out "facts may not contain variables\n";
          None)
  | exception Query_parser.Parse_error msg ->
      Buffer.add_string out (Printf.sprintf "parse error: %s\n" msg);
      None

(* Integrity.insert_checked, with the closure maintenance the violation
   scan triggers pulled into its own span. *)
let insert_checked t fact =
  span t "integrity.insert_checked" @@ fun () ->
  if Database.mem_base t.db fact then Ok false
  else begin
    ignore (Database.insert t.db fact);
    force_closure t;
    match Integrity.violations t.db with
    | [] -> Ok true
    | vs ->
        ignore (Database.remove t.db fact);
        Error vs
  end

(* The lsdb-browse journal callback, writing the log directly. *)
let journal t op fact =
  span t "storage.journal" (fun () ->
      let s, r, tgt = Fact.names (Database.symtab t.db) fact in
      Log.append t.log (op (s, r, tgt)))

let sync t = span t "storage.sync" (fun () -> Log.sync t.log)

(* Shell.governed, for a session with no deadline or budgets *)
let governed t out f =
  let gov = Governor.create () in
  Database.set_governor t.db (Some gov);
  Fun.protect ~finally:(fun () -> Database.set_governor t.db None) f;
  match Governor.tripped gov with
  | None -> ()
  | Some reason ->
      let ms = Governor.elapsed_s gov *. 1e3 in
      Buffer.add_string out
        (match reason with
        | Governor.Cancelled ->
            Printf.sprintf "(cancelled after %.1f ms — answers may be incomplete)\n" ms
        | _ ->
            Printf.sprintf
              "warning: %s tripped after %.1f ms (%d work units, %d derived facts) — \
               answers are a sound subset\n"
              (Governor.reason_string reason) ms (Governor.work_done gov)
              (Governor.facts_done gov))

let query_commands = [ "try"; "nav"; "assoc"; "t"; "q"; "probe" ]

let rec dispatch t out words =
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string out (s ^ "\n")) fmt in
  let db = t.db in
  match words with
  | [] -> ()
  | cmd :: rest -> (
      let rest_text () = String.concat " " rest in
      match (String.lowercase_ascii cmd, rest) with
      | "try", [ name ] -> say "%s" (try_render t name)
      | "nav", [ name ] -> (
          match Database.find_entity db name with
          | Some e ->
              ignore (span t neighborhood_span (fun () -> Navigation.visit t.nav e));
              say "%s" (render_source_table t e)
          | None -> say "no such entity: %s" name)
      | "assoc", [ a; b ] -> (
          match (Database.find_entity db a, Database.find_entity db b) with
          | Some src, Some tgt ->
              say "%s"
                (Lsdb_obs.Trace.with_query
                   (Printf.sprintf "assoc %s %s" a b)
                   (fun () -> render_associations t ~src ~tgt))
          | _ -> say "unknown entity")
      | "t", _ :: _ -> (
          match span t "parse" (fun () -> Query_parser.parse_template db (rest_text ())) with
          | tpl -> say "%s" (render_template t tpl)
          | exception Query_parser.Parse_error msg -> say "parse error: %s" msg)
      | "q", _ :: _ -> (
          match span t "parse" (fun () -> Query_parser.parse db (rest_text ())) with
          | query ->
              let answer =
                Lsdb_obs.Trace.with_query ("q " ^ rest_text ()) (fun () -> eval t query)
              in
              say "%s" (render t (fun () -> answer_text db answer))
          | exception Query_parser.Parse_error msg -> say "parse error: %s" msg)
      | "probe", _ :: _ -> (
          match
            span t "parse" (fun () -> Query_parser.parse_with_unknowns db (rest_text ()))
          with
          | query, unknowns ->
              if unknowns <> [] then say "(new names: %s)" (String.concat ", " unknowns);
              (* Probing.probe builds the broadness structure on a failed
                 query (the stream's probes are built to fail) and finds
                 it memoized per generation; build it here first so its
                 cost is its own span. *)
              ignore (span t "probing.broadness" (fun () -> Broadness.of_db db));
              let outcome =
                Lsdb_obs.Trace.with_query
                  ("probe " ^ rest_text ())
                  (fun () -> span t "probing.probe" (fun () -> Probing.probe db query))
              in
              Buffer.add_string out
                (render t @@ fun () ->
                 let b = Buffer.create 256 in
                 let say fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
                 Buffer.add_string b (Probing.render_menu db query outcome);
                 (match outcome with
                 | Probing.Retracted { successes; _ } ->
                     List.iteri
                       (fun i success ->
                         say "--- %d: %s" (i + 1)
                           (Query.to_string (Database.symtab db) success.Probing.query);
                         say "%s" (answer_text db success.Probing.answer))
                       successes
                 | Probing.Answered answer -> say "%s" (answer_text db answer)
                 | Probing.Exhausted _ -> ());
                 Buffer.contents b)
          | exception Query_parser.Parse_error msg -> say "parse error: %s" msg)
      | "insert", _ :: _ -> (
          match parse_fact t out (rest_text ()) with
          | Some fact -> (
              match insert_checked t fact with
              | Ok true ->
                  journal t (fun (s, r, tgt) -> Log.Insert (s, r, tgt)) fact;
                  say "inserted"
              | Ok false -> say "already present"
              | Error violations ->
                  say "rejected:";
                  List.iter (fun v -> say "  %s" (Integrity.describe db v)) violations)
          | None -> ())
      | "remove", _ :: _ -> (
          match parse_fact t out (rest_text ()) with
          | Some fact ->
              if Database.remove db fact then begin
                force_closure t;
                journal t (fun (s, r, tgt) -> Log.Remove (s, r, tgt)) fact;
                say "removed"
              end
              else say "not a base fact"
          | None -> ())
      | _ -> say "unknown command %S — type 'help'" cmd)

and run t out words =
  match words with
  | cmd :: _ when List.mem (String.lowercase_ascii cmd) query_commands ->
      governed t out (fun () ->
          force_closure t;
          dispatch t out words)
  | _ -> dispatch t out words

(* Shell.execute: one command line to its output, errors reported in
   the output. *)
let execute t line =
  let out = Buffer.create 256 in
  (try run t out (split_words line) with
  | Sys.Break as e -> raise e
  | e -> Buffer.add_string out ("error: " ^ Printexc.to_string e ^ "\n"));
  Buffer.contents out
