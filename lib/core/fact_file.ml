exception Syntax_error of { line : int; message : string }

let error line fmt =
  Printf.ksprintf (fun message -> raise (Syntax_error { line; message })) fmt

(* A '#' starts a comment only outside double quotes: [save_string]
   quotes names that contain one, such as PC#9-WAM. *)
let strip_comment line =
  let n = String.length line in
  let rec scan i quoted =
    if i = n then line
    else
      match line.[i] with
      | '"' -> scan (i + 1) (not quoted)
      | '#' when not quoted -> String.sub line 0 i
      | _ -> scan (i + 1) quoted
  in
  scan 0 false

let parse_rule db line_no text =
  (* "name: body => heads" with templates separated by '&'. *)
  match String.index_opt text ':' with
  | None -> error line_no "rule needs 'name: body => heads'"
  | Some colon -> (
      let name = String.trim (String.sub text 0 colon) in
      let rest = String.sub text (colon + 1) (String.length text - colon - 1) in
      let split_on_arrow s =
        let arrow = "=>" in
        let rec find i =
          if i + 2 > String.length s then None
          else if String.equal (String.sub s i 2) arrow then Some i
          else find (i + 1)
        in
        match find 0 with
        | None -> None
        | Some i ->
            Some (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
      in
      match split_on_arrow rest with
      | None -> error line_no "rule needs '=>'"
      | Some (body_text, heads_text) -> (
          let templates text =
            String.split_on_char '&' text
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> List.map (fun s ->
                   try Query_parser.parse_template db s
                   with Query_parser.Parse_error msg -> error line_no "%s" msg)
          in
          try Rule.make ~name ~body:(templates body_text) ~heads:(templates heads_text) ()
          with Rule.Unsafe msg -> error line_no "unsafe rule: %s" msg))

let load_string db text =
  let inserted = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then
        if line.[0] = '(' then begin
          let tpl =
            try Query_parser.parse_template db line
            with Query_parser.Parse_error msg -> error line_no "%s" msg
          in
          match Template.to_fact tpl with
          | Some fact -> if Database.insert db fact then incr inserted
          | None -> error line_no "facts may not contain variables"
        end
        else
          let directive, argument =
            match String.index_opt line ' ' with
            | Some i ->
                ( String.sub line 0 i,
                  String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
            | None -> (line, "")
          in
          match directive with
          | "class" -> Database.declare_class_relationship db (Database.entity db argument)
          | "individual" ->
              Database.declare_individual_relationship db (Database.entity db argument)
          | "limit" -> (
              match int_of_string_opt argument with
              | Some n when n >= 1 -> Database.set_limit db n
              | Some _ | None -> error line_no "limit needs a positive integer")
          | "rule" -> Database.add_rule db (parse_rule db line_no argument)
          | "exclude" ->
              if not (Database.exclude db argument) then
                error line_no "no rule named %s" argument
          | "include" ->
              if not (Database.include_rule db argument) then
                error line_no "no rule named %s" argument
          | other -> error line_no "unknown directive %S" other)
    lines;
  !inserted

let load_file db path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load_string db text

let needs_quotes name =
  name = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '\t' || c = '(' || c = ')' || c = ',' || c = '&' || c = '|'
         || c = '?' || c = '"' || c = '#')
       name

let quote name = if needs_quotes name then "\"" ^ name ^ "\"" else name

let save_string db =
  let symtab = Database.symtab db in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "# loosely structured database (generated)";
  List.iter
    (fun (e, is_class) ->
      add "%s %s" (if is_class then "class" else "individual") (quote (Symtab.name symtab e)))
    (Relclass.declarations (Database.relclass db));
  if Database.limit db <> 1 then add "limit %d" (Database.limit db);
  List.iter
    (fun ((rule : Rule.t), enabled) ->
      let builtin = Builtin_rules.find rule.name <> None in
      if not builtin then begin
        let templates tpls =
          String.concat " & " (List.map (Template.to_string symtab) tpls)
        in
        if rule.guards <> [] then
          add "# note: guards of rule %s are not representable in this format" rule.name;
        add "rule %s: %s => %s" rule.name (templates rule.body) (templates rule.heads)
      end;
      if not enabled then add "exclude %s" rule.name)
    (Database.rules db);
  let axioms = Fact.Set.of_list Database.axiom_facts in
  let facts =
    Database.facts db
    |> List.filter (fun fact -> not (Fact.Set.mem fact axioms))
    |> List.map (fun fact ->
           let s, r, t = Fact.names symtab fact in
           Printf.sprintf "(%s, %s, %s)" (quote s) (quote r) (quote t))
    |> List.sort String.compare
  in
  List.iter (fun line -> add "%s" line) facts;
  Buffer.contents buf

let save_file db path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (save_string db))
