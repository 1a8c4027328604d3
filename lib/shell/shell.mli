(** The browser's command interpreter, as a library: one session state
    (database + navigation trail + defined operators), one entry point
    that turns a command line into printable output. The [lsdb-browse]
    binary is a thin REPL around this; tests drive it directly.

    Commands (see {!help}): [try], [nav], [back], [history], [assoc],
    [t], [q], [probe], [explain], [relation], [define]/[call]/[ops]/
    [undefine], [insert]/[remove], [rules]/[include]/[exclude]/[limit],
    [check], [stats], [save]/[load]/[script]. *)

type t

(** A successful base mutation, reported to [journal] just after it was
    applied to the database. A persistent backend uses this to log shell
    mutations (see [Persistent.journal]); the default journal ignores
    them. The [load] command's bulk fact loads are not journalled. *)
type mutation =
  | Inserted of Lsdb.Fact.t
  | Removed of Lsdb.Fact.t
  | Rule_included of string
  | Rule_excluded of string
  | Limit_set of int

val create : ?journal:(mutation -> unit) -> Lsdb.Database.t -> t
val database : t -> Lsdb.Database.t

(** The governor of the command currently executing, if any. Every
    command runs under a fresh {!Lsdb_exec.Governor.t} carrying the
    session's [.deadline]/[.budget] settings; a budget trip appends a
    warning to the command output and the answers shown are a sound
    subset. The fact budget starts at {!default_fact_budget}, so an
    oversized closure is a partial answer rather than an error;
    [.budget off] lifts it. A SIGINT handler cancels the in-flight
    command by calling {!Lsdb_exec.Governor.cancel} on this handle — from
    the interrupted command's point of view the cancellation is just
    another budget trip. *)
val active_governor : t -> Lsdb_exec.Governor.t option

(** A new session's fact budget: 2 000 000 derived facts per command. *)
val default_fact_budget : int

(** Set the session deadline programmatically — the backing field of the
    [.deadline] command, exposed for [lsdb-browse --deadline-ms]. *)
val set_deadline_ms : t -> float option -> unit

(** Execute one command line; returns the output text (possibly empty,
    never raises — errors are reported in the output). The one exception
    is [Sys.Break], which propagates so a REPL's interrupt handling can
    exit through its cleanup paths. *)
val execute : t -> string -> string

(** Execute every line of a script (["#"] comments and blank lines are
    skipped), concatenating the outputs with the commands echoed. *)
val run_script : t -> string -> string

(** The built-in example databases, by name. *)
val demos : (string * (unit -> Lsdb.Database.t)) list

val help : string
