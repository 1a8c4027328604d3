module Pool = Lsdb_exec.Pool
module Governor = Lsdb_exec.Governor
module Metrics = Lsdb_obs.Metrics
module Trace = Lsdb_obs.Trace

type provenance = { rule : string; premises : Triple.t list }

(* Observability handles, registered once at module initialization. *)
let m_rounds =
  Metrics.counter ~help:"Semi-naive closure rounds executed"
    "lsdb_engine_closure_rounds_total"

let m_delta =
  Metrics.counter ~help:"Delta triples fed into closure rounds"
    "lsdb_engine_delta_triples_total"

let m_derived =
  Metrics.counter ~help:"Triples derived by closure rounds"
    "lsdb_engine_derived_triples_total"

let m_closures =
  Metrics.counter ~help:"Full closure computations" "lsdb_engine_closures_total"

let m_extends =
  Metrics.counter ~help:"Incremental extensions" "lsdb_engine_extends_total"

let m_retracts =
  Metrics.counter ~help:"Incremental retractions" "lsdb_engine_retracts_total"

let m_cone =
  Metrics.counter ~help:"Over-deleted cone facts across retractions"
    "lsdb_engine_retract_cone_facts_total"

let m_rederive_checks =
  Metrics.counter ~help:"Single-fact rederivation checks during retractions"
    "lsdb_engine_rederive_checks_total"

let m_restored =
  Metrics.counter ~help:"Cone facts restored by rederivation"
    "lsdb_engine_restored_facts_total"

let m_round_seconds =
  Metrics.histogram ~help:"Wall-clock seconds per closure round"
    "lsdb_engine_round_seconds"

let m_retract_seconds =
  Metrics.histogram ~help:"Wall-clock seconds per retraction (all phases)"
    "lsdb_engine_retract_seconds"

(* The support index inverts the provenance table: premise fact ↦ the set
   of facts whose {e recorded} derivation uses it. Built lazily on the
   first retraction, maintained incrementally afterwards. *)
type support = {
  deps : unit Triple.Tbl.t Triple.Tbl.t;
  mutable edges : int;
}

type result = {
  index : Index.t;
  derived : Triple.t list;
  provenance : provenance Triple.Tbl.t;
  rounds : int;
  mutable support : support option;
}

(* --- support-index maintenance ------------------------------------- *)

let support_add support fact { premises; _ } =
  List.iter
    (fun premise ->
      let cell =
        match Triple.Tbl.find_opt support.deps premise with
        | Some cell -> cell
        | None ->
            let cell = Triple.Tbl.create 4 in
            Triple.Tbl.add support.deps premise cell;
            cell
      in
      if not (Triple.Tbl.mem cell fact) then begin
        Triple.Tbl.add cell fact ();
        support.edges <- support.edges + 1
      end)
    premises

let support_drop support fact { premises; _ } =
  List.iter
    (fun premise ->
      match Triple.Tbl.find_opt support.deps premise with
      | None -> ()
      | Some cell ->
          if Triple.Tbl.mem cell fact then begin
            Triple.Tbl.remove cell fact;
            support.edges <- support.edges - 1;
            if Triple.Tbl.length cell = 0 then Triple.Tbl.remove support.deps premise
          end)
    premises

(* [record_provenance] and [forget_provenance] are the only writes to the
   provenance table once a result exists: they keep the support index (if
   built) in sync with the recorded derivations. *)
let record_provenance result fact prov =
  (match result.support with
  | Some support -> (
      (match Triple.Tbl.find_opt result.provenance fact with
      | Some old -> support_drop support fact old
      | None -> ());
      support_add support fact prov)
  | None -> ());
  Triple.Tbl.replace result.provenance fact prov

let forget_provenance result fact =
  match Triple.Tbl.find_opt result.provenance fact with
  | None -> ()
  | Some old ->
      (match result.support with
      | Some support -> support_drop support fact old
      | None -> ());
      Triple.Tbl.remove result.provenance fact

let force_support result =
  match result.support with
  | Some support -> support
  | None ->
      let support = { deps = Triple.Tbl.create 256; edges = 0 } in
      Triple.Tbl.iter (fun fact prov -> support_add support fact prov) result.provenance;
      result.support <- Some support;
      support

let support_size result =
  match result.support with Some { edges; _ } -> edges | None -> 0

(* A read-only window onto "all facts so far": the single-heap paths
   wrap one {!Index.t}, the sharded paths ({!Sharded}) a base heap plus
   per-shard derived overlays. The join loops below only ever need these
   three probes, so evaluating over a view costs one closure indirection
   per probe and spares the sharded engine from copying the base into a
   fresh index. *)
type view = {
  v_iter : s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit;
  v_mem : Triple.t -> bool;
  v_count : s:int option -> r:int option -> tgt:int option -> int;
}

let view_of_index idx =
  {
    v_iter = (fun ~s ~r ~tgt f -> Index.candidates idx ~s ~r ~tgt f);
    v_mem = (fun triple -> Index.mem idx triple);
    v_count = (fun ~s ~r ~tgt -> Index.count idx ~s ~r ~tgt);
  }

(* Check every guard that is fully bound; fail fast on the first violated
   one. Guards whose variables are still unbound are deferred to a later
   atom (and are guaranteed checkable at the end because rules are safe). *)
let guards_ok binding guards =
  List.for_all
    (fun g -> match Guard.check binding g with Some false -> false | Some true | None -> true)
    guards

let atom_pattern binding (atom : Atom.t) =
  ( Term.subst binding atom.s,
    Term.subst binding atom.r,
    Term.subst binding atom.t )

(* Semi-naive body evaluation: every produced binding uses at least one
   premise from [delta]; the remaining atoms are matched against [full].
   [delta] is an {e ordered array} and is iterated outermost, each triple
   tried at every body position — so the emission order depends only on
   the delta order and on [full], never on how the delta happens to be
   sharded across domains (the parallel rounds rely on exactly this).
   Leading with the delta triple also binds variables that make the
   remaining full-index probes selective. [emit binding premises] is
   called for each complete match, premises in body order. *)
let eval_rule (rule : Rule.t) ~(full : view) ~delta ~emit =
  let binding = Array.make (max rule.nvars 1) (-1) in
  let body = Array.of_list rule.body in
  let n = Array.length body in
  let premises = Array.make n (Triple.make (-1) (-1) (-1)) in
  let rest_of = Array.init n (fun k -> List.filter (fun i -> i <> k) (List.init n Fun.id)) in
  let rec go = function
    | [] ->
        if guards_ok binding rule.guards then emit binding (Array.to_list premises)
    | i :: rest ->
        let atom = body.(i) in
        let s, r, tgt = atom_pattern binding atom in
        full.v_iter ~s ~r ~tgt (fun triple ->
            match Atom.match_against binding atom triple with
            | None -> ()
            | Some newly ->
                premises.(i) <- triple;
                if guards_ok binding rule.guards then go rest;
                List.iter (fun v -> binding.(v) <- -1) newly)
  in
  Array.iter
    (fun dtriple ->
      for k = 0 to n - 1 do
        match Atom.match_against binding body.(k) dtriple with
        | None -> ()
        | Some newly ->
            premises.(k) <- dtriple;
            if guards_ok binding rule.guards then go rest_of.(k);
            List.iter (fun v -> binding.(v) <- -1) newly
      done)
    delta

(* One semi-naive round over a frozen [full]: evaluate every rule against
   one delta shard, buffering (head, premises) emissions per rule. The
   index is not mutated here, so shards can run on separate domains; a
   local seen-table bounds the buffers (keeping the first emission in the
   shard's rule-major stream, which is also the one the deterministic
   barrier merge would keep). *)
let round_shard ?gov rules ~(full : view) shard =
  let seen = Triple.Tbl.create 64 in
  let buffers = Array.make (Array.length rules) [] in
  (* Work units accumulate in a lane-local ticker and reach the governor
     in batches: two atomic RMWs per emission (and per rule on small
     deltas) cost more than the joins they were metering on the
     incremental kernels B19 gates (see {!Governor.ticker}). *)
  let tk = Governor.ticker gov in
  Array.iteri
    (fun ri (rule : Rule.t) ->
      Governor.bump tk (Array.length shard);
      eval_rule rule ~full ~delta:shard ~emit:(fun binding premises ->
          Governor.bump tk 1;
          List.iter
            (fun head ->
              match Atom.instantiate binding head with
              | None -> ()
              | Some triple ->
                  if (not (full.v_mem triple)) && not (Triple.Tbl.mem seen triple)
                  then begin
                    Triple.Tbl.add seen triple ();
                    buffers.(ri) <- (triple, premises) :: buffers.(ri)
                  end)
            rule.heads))
    rules;
  Governor.flush_ticks tk;
  Array.map List.rev buffers

(* Split [delta] into contiguous shards, preserving order. *)
let shards_of nshards delta =
  let len = Array.length delta in
  let per = (len + nshards - 1) / nshards in
  Array.init nshards (fun i ->
      let lo = i * per in
      let hi = min len (lo + per) in
      Array.sub delta lo (max 0 (hi - lo)))

(* The shared semi-naive driver: iterate rules from [initial] as the
   first delta, adding the consequences to [full] and recording
   provenance (via [record], which also maintains the support index when
   one is built) at a single-threaded barrier after each round, until no
   new triples appear. Rounds see [full] as of the round start (whether
   run on one domain or many), so for a fixed input the derived order,
   round count and provenance are identical for every [pool]/shard
   configuration. Returns the derived triples (in order) and the number
   of rounds. *)
let fixpoint ?pool ?gov rules ~full ~record initial =
  let rules = Array.of_list rules in
  let fullv = view_of_index full in
  let derived_rev = ref [] in
  let delta = ref (Array.of_list initial) in
  let rounds = ref 0 in
  (* A governor trip anywhere in a round leaves the index and provenance
     exactly as of the last completed barrier action: shard evaluation is
     read-only, and within the barrier each accepted triple's index add,
     derived accumulation and provenance record are adjacent. Catching
     [Trip] here therefore yields a consistent (sound, possibly
     incomplete) derivation — no entry point above re-raises it. *)
  (try
     while Array.length !delta > 0 do
       incr rounds;
       Governor.check gov;
       Metrics.incr m_rounds;
       Metrics.add m_delta (Array.length !delta);
       Trace.span "closure.round"
         ~meta:
           [
             ("round", string_of_int !rounds);
             ("delta", string_of_int (Array.length !delta));
           ]
       @@ fun () ->
       Metrics.time m_round_seconds @@ fun () ->
       let shard_results =
         match pool with
         | Some pool when Array.length !delta > 1 && Pool.size pool > 1 ->
             (* At least ~32 delta triples per shard: below that the join
                work cannot amortize the fan-out. *)
             let nshards =
               min (Pool.size pool) (max 1 ((Array.length !delta + 31) / 32))
             in
             if nshards = 1 then [| round_shard ?gov rules ~full:fullv !delta |]
             else
               Pool.map_array pool
                 (round_shard ?gov rules ~full:fullv)
                 (shards_of nshards !delta)
         | _ -> [| round_shard ?gov rules ~full:fullv !delta |]
       in
       (* Barrier: merge rule-major then shard-major — the same stream a
          single shard would emit — deduplicate against the index, extend
          it, and record provenance, all single-threaded. *)
       let next_rev = ref [] in
       Array.iteri
         (fun ri (rule : Rule.t) ->
           Array.iter
             (fun buffers ->
               List.iter
                 (fun (triple, premises) ->
                   if Index.add full triple then begin
                     next_rev := triple :: !next_rev;
                     derived_rev := triple :: !derived_rev;
                     record triple { rule = rule.name; premises };
                     (* After [record]: the fact that trips the budget is
                        fully accounted for, so the partial state stays
                        consistent. *)
                     Governor.count_facts gov 1
                   end)
                 buffers.(ri))
             shard_results)
         rules;
       Metrics.add m_derived (List.length !next_rev);
       Trace.annotate "derived" (string_of_int (List.length !next_rev));
       delta := Array.of_list (List.rev !next_rev);
       (* Round barrier: single-threaded, nothing iterating the index —
          the natural quiesce point for folding the delta tier into the
          packed segment. *)
       Index.quiesce full
     done
   with Governor.Trip _ -> ());
  (List.rev !derived_rev, !rounds)

let closure ?pool ?gov rules base =
  Metrics.incr m_closures;
  Trace.span "engine.closure" @@ fun () ->
  let full = Index.create () in
  let provenance = Triple.Tbl.create 256 in
  (* Base loading is governed at checkpoint granularity too: on large
     heaps the index build alone can dwarf a wall deadline, and a prefix
     of the base is still a subset of the true closure — sound for the
     positive queries partial answers serve. A trip here also makes the
     first fixpoint round trip immediately, so nothing is derived from
     the partial base. The base is materialized first and bulk-loaded:
     on a fresh index [Index.bulk_add] sorts once and builds the packed
     segment directly instead of paying the per-fact hashtable insert
     and posting cons of an add loop. *)
  let buf = ref [] and nbuf = ref 0 in
  (try
     Seq.iter
       (fun triple ->
         buf := triple :: !buf;
         incr nbuf;
         if !nbuf land 1023 = 0 then Governor.check gov)
       base
   with Governor.Trip _ -> ());
  let arr = Array.make !nbuf (Triple.make 0 0 0) in
  let w = ref (!nbuf - 1) in
  List.iter
    (fun triple ->
      arr.(!w) <- triple;
      decr w)
    !buf;
  buf := [];
  let initial = Index.bulk_add full arr in
  let derived, rounds =
    fixpoint ?pool ?gov rules ~full
      ~record:(fun triple prov -> Triple.Tbl.replace provenance triple prov)
      initial
  in
  { index = full; derived; provenance; rounds; support = None }

let extend ?pool ?gov rules result extra =
  Metrics.incr m_extends;
  Trace.span "engine.extend" @@ fun () ->
  let fresh = ref [] in
  Seq.iter
    (fun triple -> if Index.add result.index triple then fresh := triple :: !fresh)
    extra;
  let fresh = List.rev !fresh in
  let derived, rounds =
    fixpoint ?pool ?gov rules ~full:result.index
      ~record:(record_provenance result) fresh
  in
  Index.quiesce result.index;
  (* [derived] is deliberately NOT concatenated onto [result.derived]:
     that would make each extension O(closure size). Callers that track
     the full derivation order accumulate the returned segment. *)
  ({ result with rounds = result.rounds + rounds }, fresh @ derived)

(* --- incremental retraction (delete/rederive) ----------------------- *)

type retraction = {
  removed : Triple.t list;
  restored : Triple.t list;
  over_deleted : int;
  rederive_rounds : int;
}

exception Derivation of provenance

(* Goal-directed single-fact check: is [fact] derivable in one rule
   application from the facts currently in [full]? Unify each rule head
   with [fact], then join the body over the index exactly as [eval_rule]
   does. Read-only, so shards of these checks can run on separate
   domains. Any derivation found is well-founded: [fact] itself is not in
   [full] when this runs (phase 2 removed it), so it cannot support
   itself.

   Body atoms are joined most-selective-first ([Index.count] under the
   bindings accumulated so far), not in written order: with the head
   fully bound, a rule usually has one body atom pinned to the deleted
   fact's entities (a handful of candidates) and another anchored only on
   a hub key (thousands) — leading with the hub atom made each check cost
   a bucket scan per cone fact. *)
let find_derivation rules ~(full : view) fact =
  let check (rule : Rule.t) =
    let binding = Array.make (max rule.nvars 1) (-1) in
    let body = Array.of_list rule.body in
    let n = Array.length body in
    let premises = Array.make n (Triple.make (-1) (-1) (-1)) in
    let rec go remaining =
      match remaining with
      | [] ->
          if guards_ok binding rule.guards then
            raise
              (Derivation { rule = rule.name; premises = Array.to_list premises })
      | _ ->
          let best = ref (-1) and best_n = ref max_int in
          List.iter
            (fun i ->
              let s, r, tgt = atom_pattern binding body.(i) in
              let c = full.v_count ~s ~r ~tgt in
              if c < !best_n then begin
                best := i;
                best_n := c
              end)
            remaining;
          let i = !best in
          let rest = List.filter (fun j -> j <> i) remaining in
          let atom = body.(i) in
          let s, r, tgt = atom_pattern binding atom in
          full.v_iter ~s ~r ~tgt (fun triple ->
              match Atom.match_against binding atom triple with
              | None -> ()
              | Some newly ->
                  premises.(i) <- triple;
                  if guards_ok binding rule.guards then go rest;
                  List.iter (fun v -> binding.(v) <- -1) newly)
    in
    List.iter
      (fun head ->
        Array.fill binding 0 (Array.length binding) (-1);
        match Atom.match_against binding head fact with
        | None -> ()
        | Some _ -> if guards_ok binding rule.guards then go (List.init n Fun.id))
      rule.heads
  in
  match List.iter check rules with
  | () -> None
  | exception Derivation prov -> Some prov

(* Delete/rederive. Phase 1 walks the support index to collect the cone
   of facts whose recorded derivation transitively rests on a deleted
   fact (the over-deletion: a fact may have other derivations — recorded
   provenance keeps only one, so the cone is a superset of what must
   go). Phase 2 removes the cone from the index and forgets its
   provenance. Phase 3 re-checks each cone fact against the surviving
   index for an alternative one-step derivation (sharded across the pool;
   read-only, so no barrier is needed until the seeds are merged in
   deterministic cone order). Phase 4 runs the ordinary semi-naive
   fixpoint from those seeds, restoring everything reachable again. The
   rules are monotone and the index is a subset of the old closure
   throughout, so rederivation can only restore cone members — the final
   fact set equals a from-scratch recompute, at any pool size. *)
let retract ?pool ?gov rules result deleted =
  Metrics.incr m_retracts;
  Trace.span "engine.retract"
    ~meta:[ ("deleted", string_of_int (List.length deleted)) ]
  @@ fun () ->
  Metrics.time m_retract_seconds @@ fun () ->
  let support = force_support result in
  let cone = Triple.Tbl.create 64 in
  let stack = Stack.create () in
  let enter fact =
    if not (Triple.Tbl.mem cone fact) then begin
      Triple.Tbl.add cone fact ();
      Stack.push fact stack
    end
  in
  List.iter (fun fact -> if Index.mem result.index fact then enter fact) deleted;
  while not (Stack.is_empty stack) do
    let fact = Stack.pop stack in
    match Triple.Tbl.find_opt support.deps fact with
    | None -> ()
    | Some cell -> Triple.Tbl.iter (fun dep () -> enter dep) cell
  done;
  let cone_list =
    List.sort Triple.compare (Triple.Tbl.fold (fun f () acc -> f :: acc) cone [])
  in
  List.iter
    (fun fact ->
      ignore (Index.remove result.index fact : bool);
      forget_provenance result fact)
    cone_list;
  let cone_arr = Array.of_list cone_list in
  Metrics.add m_cone (Array.length cone_arr);
  Metrics.add m_rederive_checks (Array.length cone_arr);
  Trace.annotate "cone" (string_of_int (Array.length cone_arr));
  let fullv = view_of_index result.index in
  let check fact =
    Governor.tick gov 1;
    match find_derivation rules ~full:fullv fact with
    | Some prov -> Some (fact, prov)
    | None -> None
  in
  (* A trip during the rederive checks degrades every unchecked cone fact
     to "not rederived": it stays removed, which keeps the closure a
     subset of the true fixpoint (sound; the caller drops the cache on a
     tripped maintenance pass anyway). Phases 1-2 above run ungoverned —
     interrupting the removal loop could leave a deleted base fact in the
     index, which would be unsound in the other direction. *)
  let checked =
    try
      match pool with
      | Some pool when Array.length cone_arr > 1 && Pool.size pool > 1 ->
          (* Same amortization threshold spirit as the fixpoint rounds:
             each check is a full body join, so shards can be smaller. *)
          let nshards =
            min (Pool.size pool) (max 1 ((Array.length cone_arr + 15) / 16))
          in
          if nshards = 1 then Array.map check cone_arr
          else
            Array.concat
              (Array.to_list
                 (Pool.map_array pool (Array.map check) (shards_of nshards cone_arr)))
      | _ -> Array.map check cone_arr
    with Governor.Trip _ -> Array.map (fun _ -> None) cone_arr
  in
  let seeds_rev = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some (fact, prov) ->
          ignore (Index.add result.index fact : bool);
          record_provenance result fact prov;
          seeds_rev := fact :: !seeds_rev)
    checked;
  let _, rederive_rounds =
    fixpoint ?pool ?gov rules ~full:result.index
      ~record:(record_provenance result)
      (List.rev !seeds_rev)
  in
  (* End-of-retract quiesce: the cone removal above may have tombstoned
     a large frozen swath that the (possibly empty) rederive fixpoint
     never folded. *)
  Index.quiesce result.index;
  let removed, restored =
    List.partition (fun fact -> not (Index.mem result.index fact)) cone_list
  in
  Metrics.add m_restored (List.length restored);
  Trace.annotate "restored" (string_of_int (List.length restored));
  ( { result with rounds = result.rounds + rederive_rounds },
    {
      removed;
      restored;
      over_deleted = List.length cone_list;
      rederive_rounds;
    } )

let round_view = round_shard
let find_derivation_view = find_derivation

let step rules index =
  let out = ref [] in
  let delta = Array.of_seq (Index.to_seq index) in
  let full = view_of_index index in
  List.iter
    (fun (rule : Rule.t) ->
      eval_rule rule ~full ~delta ~emit:(fun binding _premises ->
          List.iter
            (fun head ->
              match Atom.instantiate binding head with
              | Some triple -> if not (Index.mem index triple) then out := triple :: !out
              | None -> ())
            rule.heads))
    rules;
  !out
