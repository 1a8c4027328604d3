module Pool = Lsdb_exec.Pool
module Governor = Lsdb_exec.Governor
module Metrics = Lsdb_obs.Metrics
module Trace = Lsdb_obs.Trace

type base = {
  b_iter : s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit;
  b_mem : Triple.t -> bool;
  b_count : s:int option -> r:int option -> tgt:int option -> int;
  b_cardinal : unit -> int;
}

(* Observability: sharded evaluation has its own counters next to the
   engine's so the two code paths can be compared from /metrics. *)
let m_rounds =
  Metrics.counter ~help:"Sharded closure rounds executed"
    "lsdb_sharded_rounds_total"

let m_derived =
  Metrics.counter ~help:"Triples derived by sharded rounds"
    "lsdb_sharded_derived_triples_total"

let m_exchanged =
  Metrics.counter
    ~help:"Derived triples routed to a shard other than the one that produced them"
    "lsdb_sharded_exchanged_total"

let m_exchange_batch =
  Metrics.histogram
    ~help:"Cross-shard triples exchanged at each round barrier"
    ~buckets:Metrics.size_buckets "lsdb_sharded_exchange_batch"

let m_imbalance =
  Metrics.gauge
    ~help:
      "Largest overlay over mean overlay cardinal, per-mille (1000 = balanced)"
    "lsdb_sharded_imbalance_permille"

let m_retracts =
  Metrics.counter ~help:"Sharded retractions" "lsdb_sharded_retracts_total"

let m_lane_rounds =
  Metrics.counter
    ~help:"Closure rounds fanned out to persistent per-shard lanes"
    "lsdb_sharded_lane_rounds_total"

let m_solo_rounds =
  Metrics.counter
    ~help:"Closure rounds evaluated inline on the caller lane"
    "lsdb_sharded_solo_rounds_total"

(* Same shape as the engine's support index: premise ↦ facts whose
   recorded derivation uses it, built lazily by the first retraction. *)
type support = {
  deps : unit Triple.Tbl.t Triple.Tbl.t;
  mutable edges : int;
}

type t = {
  plan : Shard.plan;
  base : base;
  overlays : Index.t array;  (* derived facts, routed by source owner *)
  shard_derived : Metrics.counter array;
  lane_delta : Metrics.counter array;  (* delta triples evaluated per lane *)
  provenance : Engine.provenance Triple.Tbl.t;
  mutable support : support option;
  mutable rounds : int;
  mutable derived_total : int;  (* live overlay facts, all shards *)
  mutable exchanged : int;
  (* Reshard-hint state: how many consecutive imbalance observations
     (one per fixpoint) pinned above the threshold, and the latest
     pinned reading as (hottest shard, permille, streak). *)
  mutable hot_streak : int;
  mutable hot_hint : (int * int * int) option;
}

let create ~plan base =
  let nsh = Shard.shards plan in
  {
    plan;
    base;
    overlays = Array.init nsh (fun _ -> Index.create ());
    shard_derived =
      Array.init nsh (fun i ->
          Metrics.counter
            ~help:"Triples derived into each shard's overlay"
            ~labels:[ ("shard", string_of_int i) ]
            "lsdb_sharded_shard_derived_total");
    lane_delta =
      Array.init nsh (fun i ->
          Metrics.counter
            ~help:"Delta triples evaluated by each shard's lane"
            ~labels:[ ("shard", string_of_int i) ]
            "lsdb_sharded_lane_delta_total");
    provenance = Triple.Tbl.create 256;
    support = None;
    rounds = 0;
    derived_total = 0;
    exchanged = 0;
    hot_streak = 0;
    hot_hint = None;
  }

let plan t = t.plan
let owner t (triple : Triple.t) = Shard.of_entity t.plan triple.s

(* The union view. Overlays are disjoint from the base by construction
   ([add_overlay] refuses anything already visible), so cardinals and
   counts are sums and iteration never yields a fact twice. *)
let view t : Engine.view =
  let nsh = Array.length t.overlays in
  {
    v_mem =
      (fun triple ->
        t.base.b_mem triple
        || Index.mem t.overlays.(Shard.of_entity t.plan triple.s) triple);
    v_iter =
      (fun ~s ~r ~tgt f ->
        t.base.b_iter ~s ~r ~tgt f;
        match s with
        | Some s -> Index.candidates t.overlays.(Shard.of_entity t.plan s) ~s:(Some s) ~r ~tgt f
        | None ->
            for i = 0 to nsh - 1 do
              Index.candidates t.overlays.(i) ~s ~r ~tgt f
            done);
    v_count =
      (fun ~s ~r ~tgt ->
        let base = t.base.b_count ~s ~r ~tgt in
        match s with
        | Some e -> base + Index.count t.overlays.(Shard.of_entity t.plan e) ~s ~r ~tgt
        | None ->
            let n = ref base in
            for i = 0 to nsh - 1 do
              n := !n + Index.count t.overlays.(i) ~s ~r ~tgt
            done;
            !n);
  }

let mem t triple =
  t.base.b_mem triple || Index.mem t.overlays.(owner t triple) triple

let cardinal t = t.base.b_cardinal () + t.derived_total
let derived_count t = Triple.Tbl.length t.provenance
let is_derived t triple = Triple.Tbl.mem t.provenance triple
let provenance t triple = Triple.Tbl.find_opt t.provenance triple
let iter_provenance f t = Triple.Tbl.iter f t.provenance
let iter_overlays f t = Array.iter (Index.iter f) t.overlays

let overlays_to_seq t =
  Seq.concat_map Index.to_seq (Array.to_seq t.overlays)
let rounds t = t.rounds
let exchanged t = t.exchanged
let overlay_cardinals t = Array.map Index.cardinal t.overlays

(* --- support-index maintenance (mirrors Engine's) ------------------- *)

let support_add support fact ({ premises; _ } : Engine.provenance) =
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

let support_drop support fact ({ premises; _ } : Engine.provenance) =
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

let record_provenance t fact prov =
  (match t.support with
  | Some support -> (
      (match Triple.Tbl.find_opt t.provenance fact with
      | Some old -> support_drop support fact old
      | None -> ());
      support_add support fact prov)
  | None -> ());
  Triple.Tbl.replace t.provenance fact prov

let forget_provenance t fact =
  match Triple.Tbl.find_opt t.provenance fact with
  | None -> ()
  | Some old ->
      (match t.support with
      | Some support -> support_drop support fact old
      | None -> ());
      Triple.Tbl.remove t.provenance fact

let force_support t =
  match t.support with
  | Some support -> support
  | None ->
      let support = { deps = Triple.Tbl.create 256; edges = 0 } in
      Triple.Tbl.iter (fun fact prov -> support_add support fact prov) t.provenance;
      t.support <- Some support;
      support

let support_size t =
  match t.support with Some { edges; _ } -> edges | None -> 0

(* --- overlay mutation ------------------------------------------------ *)

(* Admission to an overlay preserves the disjointness invariant: a fact
   already visible anywhere in the union (base or any overlay) is
   refused, so the union is a set and [cardinal] is a sum. *)
let add_overlay t ~view:(v : Engine.view) triple =
  if v.v_mem triple then false
  else begin
    ignore (Index.add t.overlays.(owner t triple) triple : bool);
    t.derived_total <- t.derived_total + 1;
    true
  end

let demote t triple =
  let removed = Index.remove t.overlays.(owner t triple) triple in
  if removed then t.derived_total <- t.derived_total - 1;
  forget_provenance t triple;
  removed

(* Imbalance above this (hottest overlay ≥ 1.5× the even share) counts
   as pinned; pinned for this many consecutive fixpoints raises the
   reshard hint. The cheap, 1-core-honest nub of adaptive resharding:
   we only *suggest* the split — acting on it stays with the caller. *)
let hint_permille = 1500
let hint_streak = 3

let note_imbalance t =
  let cards = overlay_cardinals t in
  let nsh = Array.length cards in
  let total = Array.fold_left ( + ) 0 cards in
  if nsh > 1 && total > 0 then begin
    let biggest = ref 0 and hottest = ref 0 in
    Array.iteri
      (fun i c ->
        if c > !biggest then begin
          biggest := c;
          hottest := i
        end)
      cards;
    let permille = !biggest * nsh * 1000 / total in
    Metrics.set m_imbalance permille;
    if permille >= hint_permille then begin
      t.hot_streak <- t.hot_streak + 1;
      if t.hot_streak >= hint_streak then
        t.hot_hint <- Some (!hottest, permille, t.hot_streak)
    end
    else begin
      t.hot_streak <- 0;
      t.hot_hint <- None
    end
  end

let reshard_hint t = t.hot_hint

(* --- the sharded fixpoint -------------------------------------------- *)

(* Partition an ordered delta by owning shard; within a shard the slice
   keeps the delta's order, so the partition is deterministic and
   independent of any pool. *)
let partition t triples =
  let nsh = Array.length t.overlays in
  if nsh = 1 then [| Array.of_list triples |]
  else begin
    let bufs = Array.make nsh [] in
    List.iter
      (fun triple ->
        let o = owner t triple in
        bufs.(o) <- triple :: bufs.(o))
      triples;
    Array.map (fun l -> Array.of_list (List.rev l)) bufs
  end

(* One barrier-separated round per iteration: evaluate each shard's
   slice against the frozen union view — on persistent per-shard worker
   lanes when the delta is wide enough to amortize the wake-up — then
   merge rule-major / shard-major — the order a single evaluator would
   emit — routing each accepted head to its owner's overlay. Lane [i] is
   pinned to shard [i] for the whole fixpoint (lanes > pool size
   multiplex deterministically, [Pool.lanes]); the round barrier at the
   merge is the only synchronization point, so results are byte-identical
   to the inline path at every (shards × domains) setting. Trip semantics
   are the engine's: a [Governor.Trip] raised from any lane (worker
   domains checkpoint through the same governor atomics) surfaces on the
   caller after the barrier, and the catch leaves the overlays and
   provenance as of the last completed barrier action. *)
let fixpoint ?pool ?gov t rules ~record initial =
  let rules_arr = Array.of_list rules in
  let fullv = view t in
  let derived_rev = ref [] in
  let rounds = ref 0 in
  let delta = ref (partition t initial) in
  let total_delta deltas = Array.fold_left (fun n a -> n + Array.length a) 0 deltas in
  let nonempty_slices deltas =
    Array.fold_left (fun n a -> if Array.length a > 0 then n + 1 else n) 0 deltas
  in
  let nsh = Array.length t.overlays in
  (* Lanes are created on the first round wide enough to fan out and
     reused for every later round of this fixpoint — the whole point of
     persistence: one wake-up negotiation per round instead of a queue
     round-trip per shard per round. *)
  let lanes = ref None in
  let lanes_for pool =
    match !lanes with
    | Some lg -> lg
    | None ->
        let lg = Pool.lanes pool ~n:nsh in
        lanes := Some lg;
        lg
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.lanes_close !lanes)
  @@ fun () ->
  (try
     while total_delta !delta > 0 do
       incr rounds;
       Governor.check gov;
       Metrics.incr m_rounds;
       Trace.span "sharded.round"
         ~meta:
           [
             ("round", string_of_int !rounds);
             ("delta", string_of_int (total_delta !delta));
           ]
       @@ fun () ->
       let shard_results =
         match pool with
         | Some pool
           when Pool.size pool > 1
                (* A skewed delta concentrated in one slice (Zipf heads
                   do this constantly) gains nothing from a fan-out:
                   every other lane would evaluate an empty slice while
                   the caller waits at the barrier. *)
                && nonempty_slices !delta > 1
                && total_delta !delta > 32 ->
             let lg = lanes_for pool in
             let out = Array.make nsh [||] in
             Metrics.incr m_lane_rounds;
             Pool.lanes_run lg (fun i ->
                 let slice = !delta.(i) in
                 if Array.length slice > 0 then
                   Metrics.add t.lane_delta.(i) (Array.length slice);
                 out.(i) <- Engine.round_view ?gov rules_arr ~full:fullv slice);
             out
         | _ ->
             Metrics.incr m_solo_rounds;
             Array.map (Engine.round_view ?gov rules_arr ~full:fullv) !delta
       in
       let nsh = Array.length t.overlays in
       let next = Array.make nsh [] in
       let crossed = ref 0 in
       let accepted = ref 0 in
       Array.iteri
         (fun ri (rule : Rule.t) ->
           Array.iteri
             (fun si buffers ->
               List.iter
                 (fun (triple, premises) ->
                   let o = owner t triple in
                   if add_overlay t ~view:fullv triple then begin
                     if o <> si then begin
                       t.exchanged <- t.exchanged + 1;
                       incr crossed
                     end;
                     incr accepted;
                     Metrics.incr t.shard_derived.(o);
                     derived_rev := triple :: !derived_rev;
                     next.(o) <- triple :: next.(o);
                     record triple { Engine.rule = rule.name; premises };
                     Governor.count_facts gov 1
                   end)
                 buffers.(ri))
             shard_results)
         rules_arr;
       Metrics.add m_derived !accepted;
       Metrics.add m_exchanged !crossed;
       if Array.length t.overlays > 1 then
         Metrics.observe m_exchange_batch (float_of_int !crossed);
       delta := Array.map (fun l -> Array.of_list (List.rev l)) next;
       (* Round barrier: lanes are parked, nothing reads the overlays —
          quiesce each one so hot overlays migrate to packed segments. *)
       Array.iter Index.quiesce t.overlays
     done
   with Governor.Trip _ -> ());
  t.rounds <- t.rounds + !rounds;
  note_imbalance t;
  List.rev !derived_rev

let closure ?pool ?gov rules t initial =
  Trace.span "sharded.closure" @@ fun () ->
  (* The base is already loaded — that is the point: the initial delta
     is just an enumeration, nothing is copied into a fresh index. *)
  let initial =
    try
      let acc = ref [] in
      let loaded = ref 0 in
      Seq.iter
        (fun triple ->
          incr loaded;
          if !loaded land 1023 = 0 then Governor.check gov;
          acc := triple :: !acc)
        initial;
      List.rev !acc
    with Governor.Trip _ -> []
  in
  fixpoint ?pool ?gov t rules ~record:(record_provenance t) initial

let extend ?pool ?gov rules t extras =
  Trace.span "sharded.extend" @@ fun () ->
  (* Demote first: a fact asserted as base that the stratum had derived
     keeps its visibility through the base tier; its overlay copy (and
     recorded derivation) must go or the union would double-count. Its
     consequences are already derived, so it does not seed. *)
  let seeds =
    List.filter
      (fun triple ->
        let was_derived = is_derived t triple in
        if was_derived then ignore (demote t triple : bool);
        (not was_derived) && t.base.b_mem triple)
      extras
  in
  fixpoint ?pool ?gov t rules ~record:(record_provenance t) seeds

type retraction = {
  removed : Triple.t list;
  restored : Triple.t list;
  over_deleted : int;
  rederive_rounds : int;
}

(* Chunk an array for pool mapping, preserving order on concatenation. *)
let chunks_of n arr =
  let len = Array.length arr in
  let per = (len + n - 1) / n in
  Array.init n (fun i ->
      let lo = i * per in
      let hi = min len (lo + per) in
      Array.sub arr lo (max 0 (hi - lo)))

(* Delete/rederive with the engine's phase structure. The deleted base
   facts are {e already} invisible (the caller mutated the base heap
   before telling us), so they enter the cone unconditionally; cone
   members still visible through the base tier need no restoration and
   are skipped by the rederive checks. *)
let retract ?pool ?gov rules t deleted =
  Metrics.incr m_retracts;
  Trace.span "sharded.retract"
    ~meta:[ ("deleted", string_of_int (List.length deleted)) ]
  @@ fun () ->
  let support = force_support t in
  let cone = Triple.Tbl.create 64 in
  let stack = Stack.create () in
  let enter fact =
    if not (Triple.Tbl.mem cone fact) then begin
      Triple.Tbl.add cone fact ();
      Stack.push fact stack
    end
  in
  List.iter enter deleted;
  while not (Stack.is_empty stack) do
    let fact = Stack.pop stack in
    match Triple.Tbl.find_opt support.deps fact with
    | None -> ()
    | Some cell -> Triple.Tbl.iter (fun dep () -> enter dep) cell
  done;
  let cone_list =
    List.sort Triple.compare (Triple.Tbl.fold (fun f () acc -> f :: acc) cone [])
  in
  List.iter (fun fact -> ignore (demote t fact : bool)) cone_list;
  let cone_arr = Array.of_list cone_list in
  let fullv = view t in
  let check fact =
    Governor.tick gov 1;
    if fullv.v_mem fact then None
    else
      match Engine.find_derivation_view rules ~full:fullv fact with
      | Some prov -> Some (fact, prov)
      | None -> None
  in
  (* Trip ⇒ every unchecked cone fact stays removed: still a subset of
     the true closure, so sound. Phases 1-2 above ran ungoverned for the
     same reason the engine's do. *)
  let checked =
    try
      match pool with
      | Some pool when Array.length cone_arr > 1 && Pool.size pool > 1 ->
          let nchunks =
            min (Pool.size pool) (max 1 ((Array.length cone_arr + 15) / 16))
          in
          if nchunks = 1 then Array.map check cone_arr
          else
            Array.concat
              (Array.to_list
                 (Pool.map_array pool (Array.map check) (chunks_of nchunks cone_arr)))
      | _ -> Array.map check cone_arr
    with Governor.Trip _ -> Array.map (fun _ -> None) cone_arr
  in
  let seeds_rev = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some (fact, prov) ->
          if add_overlay t ~view:fullv fact then begin
            record_provenance t fact prov;
            seeds_rev := fact :: !seeds_rev
          end)
    checked;
  let rounds_before = t.rounds in
  ignore
    (fixpoint ?pool ?gov t rules ~record:(record_provenance t)
       (List.rev !seeds_rev)
      : Triple.t list);
  let rederive_rounds = t.rounds - rounds_before in
  (* The cone demotion may have tombstoned frozen overlay swaths the
     rederive fixpoint never folded. *)
  Array.iter Index.quiesce t.overlays;
  let v = view t in
  let removed, restored =
    List.partition (fun fact -> not (v.v_mem fact)) cone_list
  in
  { removed; restored; over_deleted = List.length cone_list; rederive_rounds }

let closed_under rules t =
  let v = view t in
  let all = ref [] in
  v.v_iter ~s:None ~r:None ~tgt:None (fun triple -> all := triple :: !all);
  let buffers =
    Engine.round_view (Array.of_list rules) ~full:v (Array.of_list !all)
  in
  Array.for_all (fun emissions -> emissions = []) buffers

let tier_stats t =
  Array.fold_left
    (fun acc overlay -> Index.sum_stats acc (Index.tier_stats overlay))
    Index.zero_stats t.overlays
