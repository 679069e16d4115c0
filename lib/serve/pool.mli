(** The daemon's engine room: a job table, a bounded priority queue, and a
    pool of worker domains that compile (through the shared
    {!Core.Compile_cache}) and anneal each job via {!Core.Oblx.run_job}.

    Lifecycle of a job: [Queued] → [Running] → [Done] | [Failed] |
    [Cancelled]. A cancel on a queued job removes it from the queue; a
    cancel on a running job trips the annealer's abort hook, and the
    partial result (best design so far, with [cut_reason]) is kept on the
    record. A full queue rejects new submissions with a reason — the
    backpressure contract — rather than queueing unboundedly.

    With a [state_dir], the pool also keeps a durable job log
    ([state_dir/jobs.log], a {!Store} journal): one record on submit, one
    on finish. {!create} replays it, so a restarted daemon still answers
    [status]/[result] for every pre-restart job id; jobs the old daemon
    left [Queued]/[Running] cannot be resumed and are replayed as
    [Failed] with error ["daemon restarted"]. With [log_rotate_bytes],
    a journal grown past the threshold is compacted in place — one
    self-contained terminal record per finished job, original submit
    lines for live ones, atomically renamed over the old log — without
    losing replay fidelity.

    With a {!Fleet.t}, the pool is fleet-aware on two paths: a local
    compile-cache miss asks the peers' verdicts before compiling (and
    pushes fresh verdicts out), and a
    multi-restart submit with registered peers is scattered — the restart
    budget split into per-peer shards, slow or dead peers stolen from,
    results merged by {!Core.Oblx.best_of}'s winner rule, bit-identical
    to running the whole budget on one box. A submit that itself carries
    [sb_shard] executes just that range and is never re-scattered.

    A submit whose [sb_sweep] is non-empty is a sweep job: one (jobs = 1)
    synthesis per variant, run sequentially on a single worker, each
    variant compiled through the shared cache under its (canon, corner)
    key — so a 15-variant sweep over 5 corners costs exactly 5 compiles.
    Spec-target overrides are applied to the compiled problem without
    recompiling. The finished job's [result] record carries a ["sweep"]
    array of per-variant verdict rows (best cost, ok, cache hit/miss,
    predicted specs, per-variant error). Sweep jobs are never scattered
    across a fleet, and the verdict table is a deterministic function of
    (source, variants, seed) — independent of the pool's worker count.

    All table/queue state is guarded by one mutex; synthesis itself runs
    outside it. JSON views are rendered under the lock so a reader never
    sees a half-updated record. *)

type config = {
  workers : int;  (** worker domains; 0 accepts jobs but runs none (tests) *)
  queue_capacity : int;
  cache_capacity : int;  (** compile-cache entries *)
  state_dir : string option;
      (** when set, [jobs.log] there journals every submit/finish and
          [corpus.log] every recorded winner — the ops trail surviving
          the daemon, replayed by {!create} *)
  default_moves : int option;
      (** moves budget for submissions that leave ["moves"] null *)
  incremental : bool;
      (** evaluate costs with the move-scoped incremental evaluator
          ({!Core.Eval.Incr}); results are bit-identical either way, this
          is the escape hatch if they ever aren't *)
  fleet : Fleet.t option;
      (** peer coordination: restart scattering and compile-cache
          replication; [None] = the classic single-daemon pool *)
  log_rotate_bytes : int option;
      (** compact [jobs.log] once it exceeds this many bytes; [None] =
          never rotate *)
  warm : bool;
      (** seed plain submits from the winner corpus. Recording into the
          corpus is always on (passive, like the journal); this gates
          {e consumption} — with it off (the default) every run is
          bit-identical to a corpus-free daemon, which is what keeps the
          existing determinism gates green. *)
  warm_fraction : float;
      (** at most this fraction of a job's restarts get warm seeds
          (floored, so [runs = 1] always stays fully cold); the rest run
          cold so the search never collapses onto its own history *)
  corpus_capacity : int;  (** total winner-corpus entries kept *)
}

val default_config : config

type t

(** [create config] replays [state_dir/jobs.log] (when configured),
    spawns the workers, and returns the running pool. Fresh job ids
    continue past the highest replayed id, so pre-restart ids stay
    unambiguous. *)
val create : config -> t

(** [submit t s] enqueues and returns the fresh job id, or the
    backpressure/validation reason. *)
val submit : t -> Proto.submit -> (int, string) result

val cancel : t -> int -> (unit, string) result

(** [status_json t id] — the lightweight view: state, queue position,
    wait/run seconds, cache outcome. *)
val status_json : t -> int -> (Obs.Json.t, string) result

(** [result_json t id] — the full record: everything in the status view
    plus, for finished jobs, best cost, move/eval counts, [cut_reason],
    predicted specs, the sized design, and (when the submission asked for
    a trace) the job's ring of stage events. *)
val result_json : t -> int -> (Obs.Json.t, string) result

(** [stats_json t] — jobs by state, queue depth, [restored_jobs] (jobs
    replayed from the log at startup), compile-cache hit rate (plus
    [remote_hits] when a fleet is configured), journal size/rotations,
    the ["fleet"] counter block, and per-worker moves/s from the shared
    streaming-summary sink. *)
val stats_json : t -> Obs.Json.t

(** {2 Replication — the [lookup]/[push] verbs} *)

val fleet : t -> Fleet.t option

(** [lookup t store ~key] — what this daemon's own store holds for [key]:
    its compile verdict for a canon hash, or its corpus entries for a
    shape hash (best first). Counts as a served lookup. *)
val lookup : t -> Proto.store -> key:string -> Proto.record list

(** [note t r] — a peer's pushed record, absorbed and not passed on. A
    failure verdict lands in the compile cache, so the next submission of
    that source fails fast; a corpus entry lands in the corpus. *)
val note : t -> Proto.record -> unit

(** {2 Warm starts — the winner corpus and the resynthesize fast path}

    Every finished (non-shard, non-sweep) job records its winning variable
    vector, final cost, and end-of-run Hustin distribution in a bounded
    {!Corpus} keyed by the problem's shape hash, journaled in
    [state_dir/corpus.log] and replicated to fleet peers. With
    [config.warm] on, a plain submit snapshots the best corpus entries for
    its shape into [sb_warm] — at most [warm_fraction] of the restarts —
    before journaling, so the snapshot is part of the job's recorded
    inputs and a replay is bit-identical whatever the live corpus holds. *)

(** [resynthesize t r] — rerun finished job [r.rz_id] with [r.rz_specs]
    re-targeted: same source (a compile-cache hit), exactly one restart
    warm-started from the parent's recorded winner (with its Hustin
    distribution as priors), and half the parent's restarts/budget unless
    [r] says otherwise. Returns the new job's id. Works with
    [config.warm] off — the explicit parent is the seed, not the corpus. *)
val resynthesize : t -> Proto.resynth -> (int, string) result

(** [shutdown t] — reject new work, cancel queued jobs (reason
    ["shutdown"]), trip running jobs' abort hooks, and join the workers.
    Idempotent. *)
val shutdown : t -> unit
