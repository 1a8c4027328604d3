module D = Lsdb_datalog

(* The classic single-heap implementation: each stratum owns a full
   [Index.t] copy of its input facts. It doubles as the oracle the
   sharded path is gated against (B20, shard torture). *)
module Single = struct
  type t = {
    mutable staged : D.Engine.result option;  (* stratum 1 (inversion) *)
    mutable result : D.Engine.result;  (* the full closure *)
    mutable staged_rules : D.Rule.t list;
    mutable rules : D.Rule.t list;
    mutable base_cardinal : int;
    mutable actives : (int, unit) Hashtbl.t option;
    (* Derived facts in derivation order, newest segment first: extensions
       push a segment instead of concatenating (which would be O(closure)
       per insert). Deletion paths leave stale entries behind rather than
       rewriting every segment — readers filter against the provenance
       table, and the segments are compacted once stale entries outnumber
       live ones. [derived_listed] counts listed entries, stale included;
       the live count is the provenance table's length. *)
    mutable derived_segments : D.Triple.t list list;
    mutable derived_listed : int;
  }

  let compute ?pool ?gov ?(staged_rules = []) ~rules store =
    let tripped () =
      match gov with
      | Some g -> Lsdb_exec.Governor.tripped g <> None
      | None -> false
    in
    let staged, result =
      match staged_rules with
      | [] ->
          (None, D.Engine.closure ?pool ?gov rules (Store.to_seq store))
      | _ ->
          let stage =
            D.Engine.closure ?pool ?gov staged_rules (Store.to_seq store)
          in
          if tripped () then
            (* The budget tripped inside the inversion stratum. Running the
               main stratum now would reload the whole stage index
               (ungoverned, by the base-facts invariant) only to trip at
               its first checkpoint — for a wall deadline that means twice
               the budget gone on index loads alone. Adopt the stage as the
               partial result instead: it holds every base fact plus
               whatever inversions landed, the cache is flagged partial and
               discarded at the next governor transition, and retraction on
               it stays sound because the delete/rederive walk follows
               recorded provenance, not the rule list. *)
            (None, stage)
          else
            let result =
              D.Engine.closure ?pool ?gov rules
                (D.Index.to_seq stage.index)
            in
            (* The stage's derived facts are base facts to the main run;
               restore their provenance and derivation order. *)
            D.Triple.Tbl.iter
              (fun fact prov ->
                if not (D.Triple.Tbl.mem result.provenance fact) then
                  D.Triple.Tbl.replace result.provenance fact prov)
              stage.provenance;
            ( Some stage,
              {
                result with
                derived = stage.derived @ result.derived;
                rounds = stage.rounds + result.rounds;
              } )
    in
    {
      staged;
      result;
      staged_rules;
      rules;
      base_cardinal = Store.cardinal store;
      actives = None;
      derived_segments = [ result.derived ];
      derived_listed = List.length result.derived;
    }

  let push_derived t added =
    (* The derived facts among the newly added triples are exactly those
       with a recorded derivation. *)
    let derived =
      List.filter (fun fact -> D.Triple.Tbl.mem t.result.provenance fact) added
    in
    if derived <> [] then begin
      t.derived_segments <- derived :: t.derived_segments;
      t.derived_listed <- t.derived_listed + List.length derived
    end

  (* Rebuild the derivation-order record from the provenance table,
     dropping stale entries. O(listed entries), so it must not run on
     every deletion — see [compact_derived]. *)
  let refilter_derived t =
    t.derived_segments <-
      List.filter_map
        (fun seg ->
          match
            List.filter (fun f -> D.Triple.Tbl.mem t.result.provenance f) seg
          with
          | [] -> None
          | seg -> Some seg)
        t.derived_segments;
    t.derived_listed <-
      List.fold_left (fun n seg -> n + List.length seg) 0 t.derived_segments

  (* Amortization: only rewrite the segments once stale entries dominate,
     so a retraction's bookkeeping cost is proportional to what it
     deleted, not to the closure's total derived count. *)
  let compact_derived t =
    if t.derived_listed > (2 * D.Triple.Tbl.length t.result.provenance) + 1024
    then refilter_derived t

  let extend ?pool ?gov t facts =
    (* A fact asserted as base that the closure had already derived stops
       being derived: a from-scratch recompute records no derivation for
       base facts, and retraction must never delete a base fact just
       because its former premises went away. *)
    let demoted =
      List.filter (fun f -> D.Triple.Tbl.mem t.result.provenance f) facts
    in
    List.iter
      (fun f ->
        D.Engine.forget_provenance t.result f;
        match t.staged with
        | Some stage -> D.Engine.forget_provenance stage f
        | None -> ())
      demoted;
    let triples = List.to_seq facts in
    (match t.staged with
    | None ->
        let result, added =
          D.Engine.extend ?pool ?gov t.rules t.result triples
        in
        t.result <- result;
        push_derived t added
    | Some stage ->
        let stage, stage_added =
          D.Engine.extend ?pool ?gov t.staged_rules stage triples
        in
        t.staged <- Some stage;
        (* Stage provenance for the newly inverted facts carries over. *)
        List.iter
          (fun fact ->
            match D.Triple.Tbl.find_opt stage.provenance fact with
            | Some prov when not (D.Triple.Tbl.mem t.result.provenance fact) ->
                D.Engine.record_provenance t.result fact prov
            | _ -> ())
          stage_added;
        let result, added =
          D.Engine.extend ?pool ?gov t.rules t.result
            (List.to_seq stage_added)
        in
        t.result <- result;
        push_derived t added);
    if demoted <> [] then compact_derived t;
    t.base_cardinal <- t.base_cardinal + List.length facts;
    t.actives <- None;
    t

  (* Incremental deletion: delete/rederive in each stratum, stage first.
     Facts the stage stratum loses become the deletions of the main
     stratum; restored stage facts get their fresh stage derivations
     mirrored into the main provenance {e before} the main support walk,
     so the main cone is never inflated by a stale inversion edge. *)
  let retract ?pool ?gov t facts =
    (match t.staged with
    | None ->
        let result, _ret =
          D.Engine.retract ?pool ?gov t.rules t.result facts
        in
        t.result <- result
    | Some stage ->
        let stage, sret =
          D.Engine.retract ?pool ?gov t.staged_rules stage facts
        in
        t.staged <- Some stage;
        List.iter
          (fun fact ->
            match D.Triple.Tbl.find_opt stage.provenance fact with
            | Some prov -> D.Engine.record_provenance t.result fact prov
            | None -> ())
          sret.restored;
        let result, mret =
          D.Engine.retract ?pool ?gov t.rules t.result sret.removed
        in
        t.result <- result;
        (* Reconcile: anything the stage stratum kept is a base fact of
           the main stratum and must remain in the closure — re-add it
           (with its stage derivation) and close over it if the main
           retraction dropped it through a stale support edge. *)
        let missing =
          List.filter
            (fun f ->
              D.Index.mem stage.index f && not (D.Index.mem t.result.index f))
            mret.removed
        in
        if missing <> [] then begin
          List.iter
            (fun fact ->
              match D.Triple.Tbl.find_opt stage.provenance fact with
              | Some prov when not (D.Triple.Tbl.mem t.result.provenance fact)
                ->
                  D.Engine.record_provenance t.result fact prov
              | _ -> ())
            missing;
          let result, added =
            D.Engine.extend ?pool ?gov t.rules t.result
              (List.to_seq missing)
          in
          t.result <- result;
          (* The retracted facts themselves are accounted for by the
             [promoted] segment below — don't record them twice. *)
          push_derived t
            (List.filter
               (fun f -> not (List.exists (D.Triple.equal f) facts))
               added)
        end);
    t.base_cardinal <- t.base_cardinal - List.length facts;
    t.actives <- None;
    compact_derived t;
    (* Retracted base facts that survived the rederivation are now
       derived facts: they just gained a recorded derivation, and were
       never in the derivation-order record while they were base. *)
    let promoted =
      List.filter (fun f -> D.Triple.Tbl.mem t.result.provenance f) facts
    in
    if promoted <> [] then begin
      t.derived_segments <- promoted :: t.derived_segments;
      t.derived_listed <- t.derived_listed + List.length promoted
    end;
    t

  let support_size t =
    D.Engine.support_size t.result
    + match t.staged with Some stage -> D.Engine.support_size stage | None -> 0

  (* Rule-set swap for the cheap rule-toggle paths: the caller has
     established (via {!rule_counts} / {!closed_under}) that the closure's
     content is already exactly what a recompute under the new rule set
     would produce; only future extensions/retractions need the new set. *)
  let set_rules t ~staged_rules ~rules =
    t.staged_rules <- staged_rules;
    t.rules <- rules

  let closed_under t rules = D.Engine.step rules t.result.index = []
  let mem t fact = D.Index.mem t.result.index fact
  let cardinal t = D.Index.cardinal t.result.index
  let base_cardinal t = t.base_cardinal

  let derived t =
    List.concat_map
      (List.filter (fun f -> D.Triple.Tbl.mem t.result.provenance f))
      (List.rev t.derived_segments)

  let derived_count t = D.Triple.Tbl.length t.result.provenance
  let is_derived t fact = D.Triple.Tbl.mem t.result.provenance fact

  let provenance t fact =
    match D.Triple.Tbl.find_opt t.result.provenance fact with
    | Some { D.Engine.rule; premises } -> Some (rule, premises)
    | None -> None

  let rounds t = t.result.rounds

  let rule_counts t =
    let counts = Hashtbl.create 16 in
    D.Triple.Tbl.iter
      (fun _ { D.Engine.rule; _ } ->
        Hashtbl.replace counts rule
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule)))
      t.result.provenance;
    Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

  let iter f t = D.Index.iter f t.result.index
  let to_seq t = D.Index.to_seq t.result.index

  let match_pattern t (pat : Store.pattern) f =
    D.Index.candidates t.result.index ~s:pat.s ~r:pat.r ~tgt:pat.t f

  (* Exact O(1) selectivity probes over the closure index: frozen-tier
     ranges/postings net of tombstones plus live delta cells. These back
     conjunct ordering in Eval.cost and frontier selection in
     Composition. *)
  let count_pattern t (pat : Store.pattern) =
    D.Index.count t.result.index ~s:pat.s ~r:pat.r ~tgt:pat.t

  let out_degree t e = D.Index.count_s t.result.index e
  let in_degree t e = D.Index.count_t t.result.index e

  (* The [actives] cache mutates under read; concurrent readers (parallel
     retraction waves) must force it from a single domain first — see
     [prepare_readers]. *)
  let force_actives t =
    match t.actives with
    | Some table -> table
    | None ->
        let table = Hashtbl.create 256 in
        D.Index.iter
          (fun (triple : D.Triple.t) ->
            Hashtbl.replace table triple.s ();
            Hashtbl.replace table triple.r ();
            Hashtbl.replace table triple.t ())
          t.result.index;
        t.actives <- Some table;
        table

  let prepare_readers t = ignore (force_actives t)
  let active_entities t = Hashtbl.to_seq_keys (force_actives t)
  let entity_active t entity = Hashtbl.mem (force_actives t) entity
end

(* The dispatcher: a single-shard store gets the copying implementation
   above, a sharded store gets the read-through sharded strata
   ({!Sharded_closure}). Both sides maintain the same content contract,
   so every caller is oblivious to which one is live. *)
type t = Single of Single.t | Sharded of Sharded_closure.t

let compute ?pool ?gov ?staged_rules ~rules store =
  let shards = Store.shards store in
  if shards <= 1 then
    Single (Single.compute ?pool ?gov ?staged_rules ~rules store)
  else
    Sharded
      (Sharded_closure.compute ?pool ?gov ?staged_rules ~rules ~shards store)

let extend ?pool ?gov t facts =
  (match t with
  | Single s -> ignore (Single.extend ?pool ?gov s facts : Single.t)
  | Sharded s ->
      ignore (Sharded_closure.extend ?pool ?gov s facts : Sharded_closure.t));
  t

let retract ?pool ?gov t facts =
  (match t with
  | Single s -> ignore (Single.retract ?pool ?gov s facts : Single.t)
  | Sharded s ->
      ignore (Sharded_closure.retract ?pool ?gov s facts : Sharded_closure.t));
  t

let support_size = function
  | Single s -> Single.support_size s
  | Sharded s -> Sharded_closure.support_size s

let set_rules t ~staged_rules ~rules =
  match t with
  | Single s -> Single.set_rules s ~staged_rules ~rules
  | Sharded s -> Sharded_closure.set_rules s ~staged_rules ~rules

let closed_under t rules =
  match t with
  | Single s -> Single.closed_under s rules
  | Sharded s -> Sharded_closure.closed_under s rules

let mem t fact =
  match t with
  | Single s -> Single.mem s fact
  | Sharded s -> Sharded_closure.mem s fact

let cardinal = function
  | Single s -> Single.cardinal s
  | Sharded s -> Sharded_closure.cardinal s

let base_cardinal = function
  | Single s -> Single.base_cardinal s
  | Sharded s -> Sharded_closure.base_cardinal s

let derived = function
  | Single s -> Single.derived s
  | Sharded s -> Sharded_closure.derived s

let derived_count = function
  | Single s -> Single.derived_count s
  | Sharded s -> Sharded_closure.derived_count s

let is_derived t fact =
  match t with
  | Single s -> Single.is_derived s fact
  | Sharded s -> Sharded_closure.is_derived s fact

let provenance t fact =
  match t with
  | Single s -> Single.provenance s fact
  | Sharded s -> Sharded_closure.provenance s fact

let rounds = function
  | Single s -> Single.rounds s
  | Sharded s -> Sharded_closure.rounds s

let rule_counts = function
  | Single s -> Single.rule_counts s
  | Sharded s -> Sharded_closure.rule_counts s

let iter f = function
  | Single s -> Single.iter f s
  | Sharded s -> Sharded_closure.iter f s

let to_seq = function
  | Single s -> Single.to_seq s
  | Sharded s -> Sharded_closure.to_seq s

let match_pattern t pat f =
  match t with
  | Single s -> Single.match_pattern s pat f
  | Sharded s -> Sharded_closure.match_pattern s pat f

let match_list t pat =
  let acc = ref [] in
  match_pattern t pat (fun fact -> acc := fact :: !acc);
  !acc

let count_matches t pat =
  let n = ref 0 in
  match_pattern t pat (fun _ -> incr n);
  !n

let count_pattern t pat =
  match t with
  | Single s -> Single.count_pattern s pat
  | Sharded s -> Sharded_closure.count_pattern s pat

let out_degree t e =
  match t with
  | Single s -> Single.out_degree s e
  | Sharded s -> Sharded_closure.out_degree s e

let in_degree t e =
  match t with
  | Single s -> Single.in_degree s e
  | Sharded s -> Sharded_closure.in_degree s e

exception Found

let exists_match t pat =
  try
    match_pattern t pat (fun _ -> raise Found);
    false
  with Found -> true

let active_entities = function
  | Single s -> Single.active_entities s
  | Sharded s -> Sharded_closure.active_entities s

let entity_active t e =
  match t with
  | Single s -> Single.entity_active s e
  | Sharded s -> Sharded_closure.entity_active s e

let prepare_readers = function
  | Single s -> Single.prepare_readers s
  | Sharded s -> Sharded_closure.prepare_readers s

(** {1 Shard introspection} *)

let shards = function
  | Single _ -> 1
  | Sharded s -> Sharded_closure.shards s

let overlay_cardinals = function
  | Single s -> [| Single.derived_count s |]
  | Sharded s -> Sharded_closure.overlay_cardinals s

let exchanged = function
  | Single _ -> 0
  | Sharded s -> Sharded_closure.exchanged s

let tier_stats = function
  | Single s -> D.Index.tier_stats s.Single.result.D.Engine.index
  | Sharded s -> Sharded_closure.tier_stats s

let reshard_hint = function
  | Single _ -> None
  | Sharded s -> Sharded_closure.reshard_hint s

(* The sharded path has no single packed index to gallop over; callers
   fall back to a hash semi-join over [match_pattern]. *)
let intersect t h1 h2 emit =
  match t with
  | Single s ->
      D.Index.intersect s.Single.result.D.Engine.index h1 h2 emit;
      true
  | Sharded _ -> false
