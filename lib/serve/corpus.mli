(** The winner corpus: each finished job's winning design vector, final
    cost, and end-of-run Hustin move-class distribution, keyed by the
    problem's {e shape} hash ({!Netlist.Canon.problem_shape_hash} — the
    canonical form with spec target values dropped), so a re-submission of
    the same circuit with tweaked specs finds its predecessors and the
    pool can seed a fraction of its annealing restarts from prior winners.

    Bounded in memory (a few best-cost entries per shape, a total entry
    cap), journal-backed on disk ([state_dir/corpus.log], a {!Store}
    journal, one entry per line), and replicated peer-to-peer by the
    fleet in the style of compile verdicts ([push] to the ["corpus"]
    store). Entries are plain data
    and cross the wire as the same JSON object the journal stores.

    Note the corpus is an {e optimization input}, not part of a job's
    identity: the pool snapshots the corpus at submit time into the job's
    recorded inputs (the journaled submit wrap), so a rerun replaying that
    snapshot is bit-identical even though the live corpus has moved on. *)

type entry = {
  en_shape : string;  (** {!Netlist.Canon.problem_shape_hash} of the source *)
  en_canon : string;  (** full {!Netlist.Canon.problem_hash} — provenance *)
  en_job : int;  (** job id on the daemon that ran it *)
  en_name : string;  (** the job's human label *)
  en_cost : float;  (** winner's best cost *)
  en_values : float array;  (** winning variable vector, NR-polished *)
  en_grid : int array;  (** matching grid indices *)
  en_probs : float array;
      (** end-of-run Hustin distribution; [[||]] when not recorded *)
}

(** [warm_label e] — the provenance string recorded in
    {!Core.Oblx.result.warm} when a restart seeded from [e] wins. *)
val warm_label : entry -> string

(** [warm_start_of_entry e] — the {!Core.Oblx.warm_start} seed this entry
    provides (empty [en_probs] maps to no prior). *)
val warm_start_of_entry : entry -> Core.Oblx.warm_start

val entry_to_json : entry -> Obs.Json.t
val entry_of_json : Obs.Json.t -> (entry, string) result

type t

(** [create ?capacity ?per_shape ?path ()] — an empty corpus holding at
    most [capacity] (default 256) entries, the best [per_shape] (default
    4) per shape. With [path], the JSONL journal there is replayed first
    (torn or malformed lines skipped) and then opened for appending;
    without it the corpus is memory-only. *)
val create : ?capacity:int -> ?per_shape:int -> ?path:string -> unit -> t

(** [add t e] — record a winner. Returns [true] when the entry carried new
    information (inserted and journaled) and [false] when it was already
    present (replication echo) or immediately evicted as worse than the
    [per_shape] incumbents; only [true] adds should be replicated onward,
    which is what keeps peer-to-peer pushes from looping. Thread-safe. *)
val add : t -> entry -> bool

(** [lookup t shape] — the entries for [shape], best cost first (possibly
    []). Thread-safe. *)
val lookup : t -> string -> entry list

(** Every live entry, shapes in lexicographic order, best cost first
    within a shape — the deterministic order tests and replication
    sweeps iterate in. *)
val to_list : t -> entry list

(** Close the journal channel (after workers have drained). *)
val close : t -> unit

type stats = {
  entries : int;
  shapes : int;
  adds : int;  (** inserts that carried new information *)
  evictions : int;
  hits : int;  (** lookups that found at least one entry *)
  lookups : int;
  replayed : int;  (** journal lines replayed at startup *)
}

val stats : t -> stats

(** [shape_of_source src] — parse and shape-hash a problem source; [None]
    when it does not parse (such a submit fails at compile anyway). *)
val shape_of_source : string -> string option
