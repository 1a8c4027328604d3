module D = Lsdb_datalog

type t = {
  store : Store.t;
  stage : D.Sharded.t;  (* stratum 1 (inversion), overlays over the store *)
  main : D.Sharded.t;  (* main rules, base view = store ∪ stage overlays *)
  uview : D.Engine.view;  (* the full union view (main's) *)
  mutable staged_rules : D.Rule.t list;
  mutable rules : D.Rule.t list;
  mutable actives : (int, unit) Hashtbl.t option;
      (* entities of overlay (derived) facts only; the store's refcount
         table answers for the base tier *)
  (* Same amortized derivation-order record as the single-heap
     implementation: segments, newest first, filtered against the
     provenance tables on read, compacted when stale entries dominate. *)
  mutable derived_segments : D.Triple.t list list;
  mutable derived_listed : int;
}

let base_of_store store : D.Sharded.base =
  {
    b_iter =
      (fun ~s ~r ~tgt f -> Store.match_pattern store { Store.s; r; t = tgt } f);
    b_mem = (fun fact -> Store.mem store fact);
    b_count = (fun ~s ~r ~tgt -> Store.count_fast store { Store.s; r; t = tgt });
    b_cardinal = (fun () -> Store.cardinal store);
  }

(* The main stratum's base tier is everything the stage stratum can see:
   store plus stage overlays. Stage consequences are thereby base facts
   to the main rules — no copy, no provenance mirroring. *)
let base_of_stage stage : D.Sharded.base =
  let v = D.Sharded.view stage in
  {
    b_iter = v.v_iter;
    b_mem = v.v_mem;
    b_count = v.v_count;
    b_cardinal = (fun () -> D.Sharded.cardinal stage);
  }

let has_prov t fact =
  D.Sharded.is_derived t.main fact || D.Sharded.is_derived t.stage fact

let compute ?pool ?gov ?(staged_rules = []) ~rules ~shards store =
  let plan = D.Shard.plan shards in
  let tripped () =
    match gov with
    | Some g -> Lsdb_exec.Governor.tripped g <> None
    | None -> false
  in
  let stage = D.Sharded.create ~plan (base_of_store store) in
  let stage_derived =
    match staged_rules with
    | [] -> []
    | _ -> D.Sharded.closure ?pool ?gov staged_rules stage (Store.to_seq store)
  in
  let main = D.Sharded.create ~plan (base_of_stage stage) in
  let main_derived =
    (* A budget that tripped inside the stage stratum: adopt the stage as
       the partial result (the main overlays just stay empty — everything
       remains visible through the union view), exactly as the
       single-heap path adopts its stage index. *)
    if tripped () then []
    else
      D.Sharded.closure ?pool ?gov rules main
        (Seq.append (Store.to_seq store) (List.to_seq stage_derived))
  in
  let derived = stage_derived @ main_derived in
  {
    store;
    stage;
    main;
    uview = D.Sharded.view main;
    staged_rules;
    rules;
    actives = None;
    derived_segments = [ derived ];
    derived_listed = List.length derived;
  }

let push_derived t added =
  let derived = List.filter (has_prov t) added in
  if derived <> [] then begin
    t.derived_segments <- derived :: t.derived_segments;
    t.derived_listed <- t.derived_listed + List.length derived
  end

let derived_live t =
  D.Sharded.derived_count t.stage + D.Sharded.derived_count t.main

let refilter_derived t =
  t.derived_segments <-
    List.filter_map
      (fun seg ->
        match List.filter (has_prov t) seg with
        | [] -> None
        | seg -> Some seg)
      t.derived_segments;
  t.derived_listed <-
    List.fold_left (fun n seg -> n + List.length seg) 0 t.derived_segments

let compact_derived t =
  if t.derived_listed > (2 * derived_live t) + 1024 then refilter_derived t

let extend ?pool ?gov t facts =
  let stage_added = D.Sharded.extend ?pool ?gov t.staged_rules t.stage facts in
  (* Facts the main stratum had derived and the stage now derives change
     owner (main overlay → stage overlay): [Sharded.extend] demotes them
     from main below. They are already listed in an older segment, whose
     entry stays live through the stage's provenance — pushing them again
     would list them twice. *)
  let moved = D.Triple.Tbl.create 16 in
  List.iter
    (fun f ->
      if D.Sharded.is_derived t.main f then D.Triple.Tbl.replace moved f ())
    stage_added;
  let main_added =
    D.Sharded.extend ?pool ?gov t.rules t.main (facts @ stage_added)
  in
  push_derived t
    (List.filter
       (fun f -> not (D.Triple.Tbl.mem moved f))
       (stage_added @ main_added));
  compact_derived t;
  t.actives <- None;
  t

(* Stage-first delete/rederive, as in the single-heap path: facts the
   stage stratum loses for good become the deletions of the main
   stratum. The reconcile dance the copying implementation needs
   (re-adding stage survivors the main retraction dropped) cannot arise
   here — the main stratum reads stage facts through its base view and
   can never remove them. *)
let retract ?pool ?gov t facts =
  let sret = D.Sharded.retract ?pool ?gov t.staged_rules t.stage facts in
  let _mret : D.Sharded.retraction =
    D.Sharded.retract ?pool ?gov t.rules t.main sret.removed
  in
  t.actives <- None;
  compact_derived t;
  (* Retracted base facts that survived rederivation are derived now and
     were never in the derivation-order record while base. *)
  let promoted = List.filter (has_prov t) facts in
  if promoted <> [] then begin
    t.derived_segments <- promoted :: t.derived_segments;
    t.derived_listed <- t.derived_listed + List.length promoted
  end;
  t

let support_size t =
  D.Sharded.support_size t.stage + D.Sharded.support_size t.main

let set_rules t ~staged_rules ~rules =
  t.staged_rules <- staged_rules;
  t.rules <- rules

let closed_under t rules = D.Sharded.closed_under rules t.main
let mem t fact = t.uview.v_mem fact
let cardinal t = D.Sharded.cardinal t.main

(* Read from the store, not a shadow counter: an [extend] handed a
   duplicate or a [retract] handed a non-member would drift a counter
   adjusted by [List.length facts]. [Store.cardinal] is O(1). *)
let base_cardinal t = Store.cardinal t.store

let derived t =
  List.concat_map (List.filter (has_prov t)) (List.rev t.derived_segments)

let derived_count t = derived_live t
let is_derived t fact = has_prov t fact

let provenance t fact =
  match D.Sharded.provenance t.main fact with
  | Some { D.Engine.rule; premises } -> Some (rule, premises)
  | None -> (
      match D.Sharded.provenance t.stage fact with
      | Some { D.Engine.rule; premises } -> Some (rule, premises)
      | None -> None)

let rounds t = D.Sharded.rounds t.stage + D.Sharded.rounds t.main

let rule_counts t =
  let counts = Hashtbl.create 16 in
  let tally _ ({ rule; _ } : D.Engine.provenance) =
    Hashtbl.replace counts rule
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule))
  in
  D.Sharded.iter_provenance tally t.stage;
  D.Sharded.iter_provenance tally t.main;
  Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let iter f t =
  Store.iter f t.store;
  D.Sharded.iter_overlays f t.stage;
  D.Sharded.iter_overlays f t.main

let to_seq t =
  Seq.append (Store.to_seq t.store)
    (Seq.append
       (D.Sharded.overlays_to_seq t.stage)
       (D.Sharded.overlays_to_seq t.main))

let match_pattern t (pat : Store.pattern) f =
  t.uview.v_iter ~s:pat.s ~r:pat.r ~tgt:pat.t f

let match_list t pat =
  let acc = ref [] in
  match_pattern t pat (fun fact -> acc := fact :: !acc);
  !acc

let count_matches t pat =
  let n = ref 0 in
  match_pattern t pat (fun _ -> incr n);
  !n

(* Selectivity probes: exact store bucket sizes plus exact overlay
   posting counts, summed across the shards a pattern can touch — the
   "degree sums aggregated across shards" the bidirectional frontier
   choice runs on. *)
let count_pattern t (pat : Store.pattern) =
  t.uview.v_count ~s:pat.s ~r:pat.r ~tgt:pat.t

let out_degree t e = t.uview.v_count ~s:(Some e) ~r:None ~tgt:None
let in_degree t e = t.uview.v_count ~s:None ~r:None ~tgt:(Some e)

exception Found

let exists_match t pat =
  try
    match_pattern t pat (fun _ -> raise Found);
    false
  with Found -> true

let force_actives t =
  match t.actives with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 256 in
      let add (triple : D.Triple.t) =
        Hashtbl.replace table triple.s ();
        Hashtbl.replace table triple.r ();
        Hashtbl.replace table triple.t ()
      in
      D.Sharded.iter_overlays add t.stage;
      D.Sharded.iter_overlays add t.main;
      t.actives <- Some table;
      table

let prepare_readers t = ignore (force_actives t)

let entity_active t e =
  Store.entity_active t.store e || Hashtbl.mem (force_actives t) e

let active_entities t =
  let overlay = force_actives t in
  Seq.append
    (Store.active_entities t.store)
    (Seq.filter
       (fun e -> not (Store.entity_active t.store e))
       (Hashtbl.to_seq_keys overlay))

let shards t = Store.shards t.store

let overlay_cardinals t =
  let stage = D.Sharded.overlay_cardinals t.stage in
  let main = D.Sharded.overlay_cardinals t.main in
  Array.init (Array.length stage) (fun i -> stage.(i) + main.(i))

let exchanged t = D.Sharded.exchanged t.stage + D.Sharded.exchanged t.main

let tier_stats t =
  D.Index.sum_stats (D.Sharded.tier_stats t.stage) (D.Sharded.tier_stats t.main)

let reshard_hint t =
  match D.Sharded.reshard_hint t.main with
  | Some h -> Some h
  | None -> D.Sharded.reshard_hint t.stage
