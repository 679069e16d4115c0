(** The one durable primitive under oblxd: an append-only JSONL journal.
    The job log ([state_dir/jobs.log], {!Pool}) and the winner corpus
    ([state_dir/corpus.log], {!Corpus}) both sit on it, each keeping only
    its own policy (what a line means, when to compact).

    Safety is the store's job, so it lives here once:
    {ul
    {- every {!append} is one whole line, flushed before it returns;}
    {- {!open_} skips an unparseable line — the torn tail a kill -9
       mid-append leaves — instead of failing, and terminates that tail so
       the next append starts a line of its own;}
    {- {!compact} writes the new journal to [<path>.tmp], closes it, and
       renames it over the log, so at every instant [path] names one
       complete journal; a leftover [.tmp] is never read and is
       overwritten by the next compaction.}}

    Disk errors are best-effort, like the rest of the ops trail: a journal
    that cannot be opened or written drops lines rather than failing the
    daemon. Every operation takes the store's own mutex; a caller holding
    its own lock across a call must always take that lock first (the
    pool's order is [Pool.t.mutex] → store lock). *)

type t

(** [open_ path ~replay] feeds every parseable line of [path] (if it
    exists) to [replay], in file order, then opens [path] for appending.
    ([open] is an OCaml keyword.) *)
val open_ : string -> replay:(Obs.Json.t -> unit) -> t

(** [append t record] writes [record] as one line and flushes it. *)
val append : t -> Obs.Json.t -> unit

(** [compact t records] replaces the journal with exactly [records]
    (tmp file + rename), then reopens it for appending. On a disk error
    the old journal stays in place and in use. *)
val compact : t -> Obs.Json.t list -> unit

(** Lines in the journal: replayed at open (parseable ones), appended
    since, or written by the last {!compact}. *)
val lines : t -> int

(** Bytes in the journal file. *)
val bytes : t -> int

(** Close the journal; later appends are dropped. Idempotent. *)
val close : t -> unit
