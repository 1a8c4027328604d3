(** Shard-parallel semi-naive evaluation over a partitioned fact heap.

    One [t] is one stratum of a closure, evaluated {e in place} over a
    read-only base heap (the caller's store, exposed as a {!base} view)
    plus [N] derived-fact overlays, one per {!Shard} partition: a derived
    triple lives in the overlay of the shard owning its source entity.
    Nothing is ever copied out of the base — on a million-fact heap the
    from-scratch index loads are most of what {!Engine.closure} costs, so
    reading through is where the sharded path's speedup comes from (and
    why cold closures scale with what the rules derive, not with the
    heap).

    Rounds follow the engine's barrier discipline, sharded by owner
    rather than contiguously: the round's delta is partitioned by owning
    shard, each shard's slice is evaluated against the frozen union view
    ({!Engine.round_view} — cross-shard joins read straight through the
    view), and at the single-threaded barrier the emissions are merged
    rule-major then shard-major and each accepted fact is routed to its
    owner's overlay — cross-shard consequences batch into that one
    exchange per round. With a pool, shard slices evaluate on persistent
    per-shard worker lanes ({!Lsdb_exec.Pool.lanes}): lane [i] is pinned
    to shard [i] for the whole fixpoint, lanes beyond the pool size
    multiplex deterministically, and a round fans out only when more than
    one slice is non-empty (a 1-hot skewed delta stays on the caller
    lane). For a fixed shard count the result (fact set, derivation
    order, provenance, rounds) is identical at every pool size; across
    shard counts the fact set is identical but enumeration and
    derivation order are not (the identity gates compare canonically
    sorted sets).

    Retraction is delete/rederive with the same phase structure as
    {!Engine.retract}; deleted base facts are already gone from the
    read-through view when the caller hands them over, so they enter the
    over-deletion cone unconditionally. Governor trips degrade exactly
    like the engine's: sound subsets, never an escaped exception. *)

type base = {
  b_iter : s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit;
  b_mem : Triple.t -> bool;
  b_count : s:int option -> r:int option -> tgt:int option -> int;
      (** Cheap upper bound (posting sizes), for join ordering. *)
  b_cardinal : unit -> int;
}

type t

val create : plan:Shard.plan -> base -> t
(** Empty overlays over [base]. *)

val plan : t -> Shard.plan

val view : t -> Engine.view
(** The union view (base ∪ overlays): bound-source probes touch the base
    and one overlay; unbound-source probes fan out across all overlays. *)

(** [closure ?pool ?gov rules t initial] — semi-naive fixpoint from
    [initial] (every fact currently visible in the base view, in a
    deterministic order of the caller's choosing), derived facts landing
    in the overlays. Returns the derived triples in derivation order.
    A governor trip yields a sound prefix. *)
val closure :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  t ->
  Triple.t Seq.t ->
  Triple.t list

(** [extend ?pool ?gov rules t extras] — incremental maintenance under
    insertion: [extras] are base facts the caller has {e already} added
    to the base heap (they are visible through the view). Facts the
    stratum had previously derived are demoted (overlay entry and
    provenance dropped — the base copy now owns them); the rest seed a
    fixpoint. Returns the newly derived triples in derivation order. *)
val extend :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  t ->
  Triple.t list ->
  Triple.t list

type retraction = {
  removed : Triple.t list;  (** cone facts gone for good, [Triple.compare] order *)
  restored : Triple.t list;  (** cone facts still visible or rederived, same order *)
  over_deleted : int;
  rederive_rounds : int;
}

(** [retract ?pool ?gov rules t deleted] — delete/rederive: [deleted]
    must already be gone from the base heap. The cone of facts whose
    recorded derivation rests on them is over-deleted from the overlays,
    then every cone member still derivable from the surviving view is
    restored. Rederive checks fan out across the pool (read-only). *)
val retract :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  t ->
  Triple.t list ->
  retraction

(** [demote t fact] — drop [fact]'s overlay entry and provenance (e.g.
    when it was just asserted as a base fact); [true] iff it was in an
    overlay. *)
val demote : t -> Triple.t -> bool

(** [closed_under rules t] — does one application round of [rules] over
    the whole union view produce nothing new? *)
val closed_under : Rule.t list -> t -> bool

val mem : t -> Triple.t -> bool
val cardinal : t -> int
(** Base + overlays (the overlays are disjoint from the base). *)

val derived_count : t -> int
val is_derived : t -> Triple.t -> bool
val provenance : t -> Triple.t -> Engine.provenance option
val iter_provenance : (Triple.t -> Engine.provenance -> unit) -> t -> unit
val record_provenance : t -> Triple.t -> Engine.provenance -> unit
val iter_overlays : (Triple.t -> unit) -> t -> unit
(** Every derived fact, shard-major. *)

val overlays_to_seq : t -> Triple.t Seq.t
(** Every derived fact as a sequence, shard-major. *)

val rounds : t -> int
val support_size : t -> int

val overlay_cardinals : t -> int array
(** Live derived facts per shard — the partition balance. *)

val exchanged : t -> int
(** Cross-shard routings so far: consequences produced while evaluating
    one shard's delta but owned by another shard. *)

val reshard_hint : t -> (int * int * int) option
(** [(shard, permille, streak)] when the imbalance gauge has pinned at or
    above 1500‰ for 3+ consecutive fixpoints: the hottest overlay's shard
    index, the latest reading, and how many fixpoints it has pinned.
    Cleared as soon as a fixpoint observes balance again. *)

val tier_stats : t -> Index.tier_stats
(** Frozen/delta tier sizes summed over all overlays. *)
