(** Integrity (§2.5, §3.5): a loosely structured database is a set of facts
    and rules whose closure is free of contradictions.

    Integrity constraints are ordinary rules — they derive required facts
    into the closure — so checking reduces to finding contradictions in
    the closure itself:
    - two closure facts [(x,r,y)] and [(x,r',y)] with [(r,⊥,r')] in the
      closure (the paper's contradiction facts, e.g. (LOVES,⊥,HATES));
    - a closure fact the mathematical oracle refutes, e.g. a derived
      [(x,>,0)] when [x] is a non-positive number — this is how a
      constraint like "(x,∈,AGE) ⇒ (x,>,0)" fails. *)

type conflict =
  | Contradictory of Fact.t  (** the closure fact it clashes with *)
  | Math  (** refuted by the §3.6 oracle *)

type violation = { fact : Fact.t; conflict : conflict }

(** All contradictions in the current closure. Pairs are reported once. *)
val violations : Database.t -> violation list

val is_valid : Database.t -> bool

(** Why a checked change was undone. *)
type rejection =
  | Violations of violation list  (** the change created contradictions *)
  | Unverified of Lsdb_exec.Governor.reason
      (** the installed governor tripped, so the check saw only part of
          the closure and could not prove the change clean *)

(** [insert_checked db fact] inserts, validates the new closure, and rolls
    the insertion back unless the check proved it clean: on violations,
    and on a check cut short by the installed governor. Already-present
    facts yield [Ok false]. *)
val insert_checked : Database.t -> Fact.t -> (bool, rejection) result

(** [add_rule_checked db rule] — same discipline for rules (a new
    integrity constraint may be violated by existing data). *)
val add_rule_checked : Database.t -> Rule.t -> (unit, rejection) result

val describe : Database.t -> violation -> string

(** One line per reason, for display. *)
val describe_rejection : Database.t -> rejection -> string list
