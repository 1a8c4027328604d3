(** Finding entry points: name search over the universe of entities.

    Browsing needs a first foothold (§6.1's [try] assumes you can spell
    the entity). [Search] finds candidates by substring and by bounded
    edit distance, which also upgrades the §5.2 misspelling diagnosis
    from "no such database entities" to a "did you mean …?" list. *)

(** Case-insensitive substring match over entity names, best (shortest
    name) first, capped at [limit] (default 20). *)
val substring : ?limit:int -> Database.t -> string -> Entity.t list

(** [fuzzy db name] — entities whose name is within edit distance
    [max_distance] (default 2, case-insensitive), nearest first (ties by
    id), capped at [limit] (default 10); excludes exact matches of
    [name] itself (case-insensitive, so distance 0).

    The scan builds [name]'s match-mask table once and runs the
    Myers/Hyyrö bit-parallel Levenshtein over each candidate whose
    length is within [max_distance] of it, case-folding bytes on the
    fly: a few word operations per candidate byte and no allocation per
    candidate. The kernel keeps one bit per target byte, so it covers
    names of 1–63 bytes (an empty [name]'s distance to a candidate is
    the candidate's length); longer names fall back to
    {!edit_distance}, the same result at DP cost. *)
val fuzzy : ?limit:int -> ?max_distance:int -> Database.t -> string -> Entity.t list

(** Plain Levenshtein distance (insert/delete/substitute, unit costs),
    case-sensitive, by the two-row DP. Transpositions are not a single
    edit: swapping two adjacent characters costs 2, which is still within
    {!fuzzy}'s default [max_distance] (the workload's misspellings rely
    on that). The reference {!fuzzy}'s kernel agrees with. *)
val edit_distance : string -> string -> int

(** [suggestions db name] — the "did you mean" list for an unknown name:
    the nearest [limit] (default 5) {!fuzzy} matches that actually occur
    in some closure fact. The whole nearest-first match list is walked,
    so any number of nearer factless names (probes intern their
    misspellings) cannot crowd a real entity out. *)
val suggestions : ?limit:int -> Database.t -> string -> Entity.t list
