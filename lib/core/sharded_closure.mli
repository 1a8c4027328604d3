(** The sharded counterpart of {!Closure}'s single-heap implementation:
    both strata (inversion stage, main rules) run as
    {!Lsdb_datalog.Sharded} evaluations that read {e through} the store
    rather than copying it into per-stratum indexes — the main stratum's
    base view is the store plus the stage overlays, so stage consequences
    are base-tier facts for the main rules with no provenance mirroring
    and no reload.

    Content contract: for any store, rule set and shard count, the fact
    set, the derived set and the base/derived split are identical to the
    single-heap {!Closure}'s; enumeration and derivation {e order} are
    not (identity gates compare canonically sorted sets). For a fixed
    shard count the result is byte-identical at every pool size.

    This module is not used directly — {!Closure} dispatches here when
    the owning database has [shards > 1]. *)

type t

val compute :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  ?staged_rules:Lsdb_datalog.Rule.t list ->
  rules:Lsdb_datalog.Rule.t list ->
  shards:int ->
  Store.t ->
  t

val extend :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  t ->
  Fact.t list ->
  t

val retract :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  t ->
  Fact.t list ->
  t

val support_size : t -> int

val set_rules :
  t -> staged_rules:Lsdb_datalog.Rule.t list -> rules:Lsdb_datalog.Rule.t list -> unit

val closed_under : t -> Lsdb_datalog.Rule.t list -> bool
val mem : t -> Fact.t -> bool
val cardinal : t -> int

(** Always [Store.cardinal] of the owning store — O(1), never a shadow
    counter, so extending with a duplicate or retracting a non-member
    cannot drift it. *)
val base_cardinal : t -> int
val derived : t -> Fact.t list
val derived_count : t -> int
val is_derived : t -> Fact.t -> bool
val provenance : t -> Fact.t -> (string * Fact.t list) option
val rounds : t -> int
val rule_counts : t -> (string * int) list
val iter : (Fact.t -> unit) -> t -> unit
val to_seq : t -> Fact.t Seq.t
val match_pattern : t -> Store.pattern -> (Fact.t -> unit) -> unit
val match_list : t -> Store.pattern -> Fact.t list
val count_matches : t -> Store.pattern -> int
val count_pattern : t -> Store.pattern -> int
val out_degree : t -> Entity.t -> int
val in_degree : t -> Entity.t -> int
val exists_match : t -> Store.pattern -> bool
val active_entities : t -> Entity.t Seq.t
val entity_active : t -> Entity.t -> bool
val prepare_readers : t -> unit

(** {1 Shard introspection (B20, shell [.stats])} *)

val shards : t -> int

(** Live derived facts per shard, stage and main overlays summed. *)
val overlay_cardinals : t -> int array

(** Cross-shard deltas routed at round barriers so far, both strata. *)
val exchanged : t -> int

(** Frozen/delta tier sizes summed over both strata's overlays. *)
val tier_stats : t -> Lsdb_datalog.Index.tier_stats

(** The main stratum's reshard hint, falling back to the stage's. *)
val reshard_hint : t -> (int * int * int) option
