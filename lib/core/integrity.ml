type conflict = Contradictory of Fact.t | Math

type violation = { fact : Fact.t; conflict : conflict }

let violations db =
  let symtab = Database.symtab db in
  let out = ref [] in
  (* Contradiction pairs: for every (r,⊥,r') in the closure, facts related
     by r and also by r'. ⊥ is symmetric (axiom (⊥,↔,⊥) + inversion), so
     each unordered pair is reported once via an order filter. The
     mode-aware accessors keep this goal-directed under demand: only the
     ⊥ extent, the extents of relationships actually declared
     contradictory, and the candidate clash memberships are derived. *)
  Database.closure_match db (Store.pattern ~r:Entity.contra ()) (fun contra_fact ->
      let r = contra_fact.s and r' = contra_fact.t in
      if r <= r' && not (Entity.equal r Entity.contra) then
        Database.closure_match db (Store.pattern ~r ()) (fun fact ->
            let clash = Fact.make fact.s r' fact.t in
            let clashes =
              Database.closure_mem db clash
              || Virtual_facts.holds symtab fact.s r' fact.t = Some true
            in
            if clashes && not (r = r' && Fact.compare fact clash > 0) then
              out := { fact; conflict = Contradictory clash } :: !out));
  (* Oracle refutations: stored or derived facts the mathematics denies. *)
  (match Database.closure_mode db with
  | Database.Eager ->
      Closure.iter
        (fun fact ->
          match Virtual_facts.holds symtab fact.s fact.r fact.t with
          | Some false -> out := { fact; conflict = Math } :: !out
          | Some true | None -> ())
        (Database.closure db)
  | Database.Demand ->
      (* [Virtual_facts.holds] refutes only comparator relationships (the
         ⊑/Δ/∇ branch answers [Some true] or [None]), so demanding the six
         comparator extents covers every possible Math violation without
         materializing the closure. *)
      List.iter
        (fun cmp ->
          Database.closure_match db (Store.pattern ~r:cmp ()) (fun fact ->
              match Virtual_facts.holds symtab fact.s fact.r fact.t with
              | Some false -> out := { fact; conflict = Math } :: !out
              | Some true | None -> ()))
        [ Entity.lt; Entity.gt; Entity.eq; Entity.neq; Entity.le; Entity.ge ]);
  List.rev !out

let is_valid db = violations db = []

type rejection = Violations of violation list | Unverified of Lsdb_exec.Governor.reason

(* Validate a change just applied, undoing it unless it is proven clean.
   A check that ran on a partial closure (the installed governor tripped)
   proves nothing, so it undoes the change too rather than report it
   verified. *)
let validate db ~undo =
  let vs = violations db in
  match (Database.governor_tripped db, vs) with
  | Some reason, _ ->
      undo ();
      Error (Unverified reason)
  | None, [] -> Ok ()
  | None, vs ->
      undo ();
      Error (Violations vs)

let insert_checked db fact =
  if Database.mem_base db fact then Ok false
  else begin
    ignore (Database.insert db fact);
    validate db ~undo:(fun () -> ignore (Database.remove db fact))
    |> Result.map (fun () -> true)
  end

let add_rule_checked db rule =
  let shadowed =
    List.find_opt (fun (existing, _) -> Rule.equal_name existing rule) (Database.rules db)
  in
  Database.add_rule db rule;
  validate db ~undo:(fun () ->
      ignore (Database.remove_rule db rule.Rule.name);
      match shadowed with
      | Some (old_rule, enabled) ->
          Database.add_rule db old_rule;
          if not enabled then ignore (Database.exclude db old_rule.Rule.name)
      | None -> ())

let describe db violation =
  let symtab = Database.symtab db in
  match violation.conflict with
  | Contradictory clash ->
      Printf.sprintf "%s contradicts %s"
        (Fact.to_string symtab violation.fact)
        (Fact.to_string symtab clash)
  | Math ->
      Printf.sprintf "%s is refuted by the mathematical facts"
        (Fact.to_string symtab violation.fact)

let describe_rejection db = function
  | Violations vs -> List.map (describe db) vs
  | Unverified reason ->
      [
        Printf.sprintf "integrity check incomplete (%s tripped); nothing changed"
          (Lsdb_exec.Governor.reason_string reason);
      ]
