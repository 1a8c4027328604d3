(** Semi-naive fixpoint evaluation.

    Computes the closure of a set of ground triples under a set of
    conjunctive rules (§2.6 of the paper), recording for every derived
    triple one derivation (rule name + premises) for explanation.

    Rounds use a barrier discipline: every rule application in a round
    reads the index as of the round start, and the round's consequences
    are merged in deterministically (rule order, then delta order) at a
    single-threaded barrier. A round's delta can therefore be sharded
    across the domains of an [Lsdb_exec.Pool] — pass [?pool] to
    {!closure}/{!extend}/{!retract} — and the result (index, derived
    order, rounds, provenance) is byte-identical for every pool size,
    including none.

    Closures are maintained incrementally in both directions: {!extend}
    for insertions and {!retract} for deletions (delete/rederive, backed
    by a support index inverting the provenance table).

    All three entry points accept an optional {!Lsdb_exec.Governor.t}
    and checkpoint it at round barriers plus amortized ticks inside the
    rule joins. A trip never escapes: the entry point returns a
    {e consistent subset} of the ungoverned result (index, derived list
    and provenance agree with each other at the interruption point;
    retraction leaves unchecked cone facts removed). Callers detect
    partiality with [Governor.tripped] and must treat the result as
    non-cacheable for ungoverned use.

    The governor's fact budget is the only bound on a closure's size.
    Rules are function-free and the base is finite, so an ungoverned
    call always reaches its fixpoint; a caller that must cap the work
    passes a governor created with [~max_facts]. *)

type provenance = { rule : string; premises : Triple.t list }

type support
(** Inverse of the provenance table: premise fact ↦ facts whose recorded
    derivation uses it. Built lazily by the first {!retract}, maintained
    incrementally afterwards through {!record_provenance} /
    {!forget_provenance}. *)

type result = {
  index : Index.t;  (** the full closure, base facts included *)
  derived : Triple.t list;  (** derived facts, in derivation order *)
  provenance : provenance Triple.Tbl.t;  (** one derivation per derived fact *)
  rounds : int;  (** number of semi-naive iterations to fixpoint *)
  mutable support : support option;
      (** support index over [provenance]; [None] until a retraction
          needs it *)
}

(** [closure ?pool ?gov rules base] computes the closure of [base]
    under [rules]. Duplicate base triples are collapsed. With [?pool],
    each round's delta is evaluated across the pool's domains. With
    [?gov], both the base load and the fixpoint run under the governor's
    checkpoints: a trip yields a sound partial result (a prefix of the
    base plus whatever was derived from it — always a subset of the true
    closure), never an escaped exception. *)
val closure :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  Triple.t Seq.t ->
  result

(** [extend ?pool ?gov rules result extra] incrementally maintains a
    closure under insertions: the [extra] base triples are added and the
    semi-naive fixpoint continues from them, reusing everything already
    derived. [result.index] and [result.provenance] are updated in place;
    the returned record carries the accumulated [rounds], but [derived]
    is {e not} extended (that would cost O(closure) per call) — the
    second component lists every triple new to the index (base and
    derived), in derivation order, for callers to accumulate or to feed
    to the next stratum. *)
val extend :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  result ->
  Triple.t Seq.t ->
  result * Triple.t list

type retraction = {
  removed : Triple.t list;  (** cone facts gone for good, [Triple.compare] order *)
  restored : Triple.t list;  (** cone facts rederived from survivors, same order *)
  over_deleted : int;  (** size of the over-deleted cone *)
  rederive_rounds : int;  (** semi-naive rounds spent restoring survivors *)
}

(** [retract ?pool ?gov rules result deleted] incrementally
    maintains a closure under deletions using delete/rederive: the cone
    of facts whose recorded derivation transitively rests on a [deleted]
    fact is over-deleted, then every cone member still derivable from the
    survivors is restored by the ordinary semi-naive fixpoint.
    [result.index] and [result.provenance] are updated in place; the
    resulting fact set is byte-identical to a from-scratch {!closure}
    over the surviving base facts, at any pool size. [result.derived] is
    {e not} rewritten (same O(closure) argument as {!extend}) — callers
    tracking derivation order filter their own record against
    {!result.provenance}. *)
val retract :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  result ->
  Triple.t list ->
  result * retraction

(** [record_provenance result fact prov] replaces [fact]'s recorded
    derivation, keeping the support index (when built) in sync. Used by
    the closure strata to carry stage provenance across. *)
val record_provenance : result -> Triple.t -> provenance -> unit

(** [forget_provenance result fact] drops [fact]'s recorded derivation
    (support index kept in sync) — e.g. when a derived fact is asserted
    as base and must stop depending on its premises. *)
val forget_provenance : result -> Triple.t -> unit

(** Number of edges in the support index; [0] until a retraction has
    forced it. *)
val support_size : result -> int

(** [consequences rules index binding_hook] — single application round used
    by incremental maintenance: derive everything the rules produce from the
    facts currently in [index] without iterating to fixpoint. *)
val step : Rule.t list -> Index.t -> Triple.t list

(** {1 View-based evaluation}

    The join loops read "all facts so far" through three probes only;
    {!view} packages them so the sharded engine ({!Sharded}) can evaluate
    over a base heap plus per-shard derived overlays {e without} copying
    the base into a fresh {!Index.t} — on a million-fact heap the two
    index loads are most of what a from-scratch closure costs. The
    single-heap entry points above all run over {!view_of_index}. *)

type view = {
  v_iter : s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit;
      (** [candidates]: every triple compatible with the pattern. *)
  v_mem : Triple.t -> bool;
  v_count : s:int option -> r:int option -> tgt:int option -> int;
      (** O(1)-ish upper bound on [v_iter]'s yield, for join ordering. *)
}

val view_of_index : Index.t -> view

(** [round_view rules ~full delta] — one semi-naive round of every rule
    against one delta shard, reading [full] as frozen: returns the
    [(head, premises)] emissions buffered per rule (rule order matching
    [rules], emission order deterministic in the delta order), deduplicated
    against [full] and within the shard. Read-only on [full], so shards
    can run on separate pool domains; the caller merges rule-major then
    shard-major and routes accepted heads itself. [?gov] is ticked at
    amortized batches, [Trip] propagates to the caller. *)
val round_view :
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t array ->
  full:view ->
  Triple.t array ->
  (Triple.t * Triple.t list) list array

(** [find_derivation_view rules ~full fact] — is [fact] derivable in one
    rule application from the facts in [full]? Joins most-selective-first
    via [v_count]. Read-only; used by sharded delete/rederive. *)
val find_derivation_view :
  Rule.t list -> full:view -> Triple.t -> provenance option
