(** The heap of facts: a mutable, fully indexed set of triples,
    hash-partitioned by source entity across [shards] internal shards
    ({!Lsdb_datalog.Shard}), each shard one {!Lsdb_datalog.Index} — the
    same two-tier posting store the closure engines evaluate over.

    Supports insertion, deletion and matching for every bound-position
    pattern in O(1) expected time per result; source-bound operations
    touch exactly one shard, source-unbound probes fan out across all of
    them. With the default single shard the layout is the classic
    unpartitioned heap. A deliberately naive linear [match_scan] is also
    exposed so the benchmarks can quantify what the indexes buy
    (experiment B2) — the paper leaves "suitable storage strategies"
    open (§6.2). *)

type t

(** Bound-position pattern; [None] is a wildcard. *)
type pattern = { s : Entity.t option; r : Entity.t option; t : Entity.t option }

val pattern : ?s:Entity.t -> ?r:Entity.t -> ?t:Entity.t -> unit -> pattern

val create : ?size_hint:int -> ?shards:int -> unit -> t

(** Number of internal shards ([>= 1]). *)
val shards : t -> int

(** The routing plan, for layers that co-partition with the heap (the
    sharded closure's overlays). *)
val shard_plan : t -> Lsdb_datalog.Shard.plan

(** Facts per shard — the partition balance (B20's imbalance gauge). *)
val shard_cardinals : t -> int array

(** [reshard t n] re-partitions in place: the handle stays valid, every
    fact is re-routed. O(heap). Iteration order changes — callers must
    invalidate anything derived from it (the database bumps its
    generation and drops its closure caches). *)
val reshard : t -> int -> unit

(** [add t fact] is [true] iff the fact was not already present. *)
val add : t -> Fact.t -> bool

(** [remove t fact] is [true] iff the fact was present. *)
val remove : t -> Fact.t -> bool

val mem : t -> Fact.t -> bool
val cardinal : t -> int
val clear : t -> unit

(** [quiesce t] applies the process-global freeze policy
    ({!Lsdb_datalog.Index.set_policy}) to every shard's index. Content-
    neutral, but it may fold the delta tier into a new packed segment,
    so it must not run while an iteration over the store is in flight.
    The database calls it only before computing an eager closure in
    eager mode. *)
val quiesce : t -> unit

val iter : (Fact.t -> unit) -> t -> unit
val fold : (Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_seq : t -> Fact.t Seq.t
val to_list : t -> Fact.t list

(** Indexed pattern matching. *)
val match_pattern : t -> pattern -> (Fact.t -> unit) -> unit

val match_list : t -> pattern -> Fact.t list
val count_matches : t -> pattern -> int

(** [count_fast t pat] — the number of facts matching [pat] in O(1)
    (O(shards) for source-unbound patterns), from {!Lsdb_datalog.Index.count}.
    Exact, always equal to [count_matches]; the cheap selectivity probe
    behind the sharded closure's and the demand engine's join ordering. *)
val count_fast : t -> pattern -> int

(** Unindexed full-scan matching (baseline for B2). Same results as
    [match_pattern], radically different cost profile. *)
val match_scan : t -> pattern -> (Fact.t -> unit) -> unit

(** Distinct entities appearing in some fact, with multiplicity ignored. *)
val active_entities : t -> Entity.t Seq.t

(** Does the entity appear in some stored fact? O(1). *)
val entity_active : t -> Entity.t -> bool

val copy : t -> t
