(** The synthesis fleet: what lets a daemon scale past one box.

    Three cooperating pieces, all riding the existing {!Proto} line
    protocol over {!Client} connections (Unix socket or authenticated
    TCP):

    {ul
    {- {b Scatter/steal/merge.} A daemon with registered peers that
       receives an ordinary multi-restart submit splits the restart
       budget [\[0, runs)] into contiguous shards — one per participant —
       and forwards each remote shard as a submit carrying
       [shard_lo]/[shard_hi] ({!Proto.submit.sb_shard}). Restart [k] of a
       shard anneals with the [k]-th RNG split stream of the same root
       seed ({!Core.Oblx.best_of}'s [restarts] contract), so the fleet
       performs exactly the restarts one big box would. A shard whose
       peer dies, answers garbage, or misses the steal deadline is
       {e stolen}: re-run locally over the same index range, producing
       the same bits. Merging folds per-shard winners in ascending shard
       order with strict [<] on the recorded {!Core.Oblx.score} — the
       exact winner rule [best_of] applies internally — so the fleet's
       answer is byte-for-byte the single-box answer.}
    {- {b Replication.} Two stores travel between peers over one verb
       pair, [lookup]/[push] ({!Proto.store}). Compiled problems hold
       closures and cannot cross the wire, so the fleet replicates compile
       {e verdicts}: on a local cache miss a daemon asks its peers, and
       after compiling something new it pushes the verdict to them. A
       known-bad verdict lands in the receiver's {!Core.Compile_cache}, so
       that source fails fast there without recompiling; a known-good one
       still compiles locally, and a peer's answer counts as a remote hit.
       Finished jobs' winners travel the same way into peers' corpora.}
    {- {b Counters} for all of it in [stats_json], surfaced under
       ["fleet"] by the daemon's [stats] verb.}} *)

type t

type config = {
  peers : string list;  (** endpoint strings ({!Client.parse_endpoint}) *)
  auth : string option;  (** shared secret sent to peers *)
  steal_timeout_s : float;
      (** per-shard deadline: a peer that hasn't finished its shard by
          then is treated as dead and the shard is stolen *)
  rpc_timeout_s : float;  (** submit/lookup/push socket timeout *)
}

(** No peers, no auth, 60 s steal deadline, 5 s RPCs. *)
val default_config : config

val create : config -> t

(** Peers can be rewired live — how tests and benches boot daemons on
    ephemeral ports first and introduce them afterwards, and how an
    operator drains a box (see docs/SERVER.md's runbook). *)
val peers : t -> string list

val set_peers : t -> string list -> unit
val auth : t -> string option

(** {2 Replication}

    Best-effort on both sides: a dead peer costs one timed-out RPC and a
    counter. A daemon answers lookups only from its own store, and a
    receiver of a push does not pass it on — each daemon pushes its own
    records to every peer directly, which is loop-free on a full mesh. *)

(** [lookup t store ~key] asks each peer in turn; the first non-empty
    answer wins ([[]]: nobody knows). *)
val lookup : t -> Proto.store -> key:string -> Proto.record list

(** [push t r] sends [r] to every peer. *)
val push : t -> Proto.record -> unit

(** Count an inbound [lookup] verb (answered from the pool's own store). *)
val record_served_lookup : t -> Proto.store -> unit

(** Count an inbound [push] verb (absorbed by the pool's own store). *)
val record_inbound_push : t -> Proto.store -> unit

(** {2 Scatter / steal / merge} *)

type shard_result = {
  sr_lo : int;
  sr_hi : int;  (** restart range [\[lo, hi)] this shard executed *)
  sr_peer : string option;  (** [None]: ran on this daemon *)
  sr_stolen : bool;  (** re-run locally after the peer failed *)
  sr_outcome : Proto.outcome;
      (** the shard's winner and totals; [jo_winner_restart] is the global
          restart index and [jo_winner_score] its {!Core.Oblx.score},
          always present *)
}

(** [split_shards ~runs ~parts] — contiguous ascending ranges covering
    [\[0, runs)], at most [runs] of them; the first [runs mod parts]
    shards take the remainder. *)
val split_shards : runs:int -> parts:int -> (int * int) list

(** [scatter t ~submit ~run_local] — shard [submit]'s restart budget over
    this daemon + peers; shard 0 runs locally via [run_local], the rest
    go to peers (each on its own thread, as a sharded submit that is never
    re-scattered). Any remote failure — refused submit, dead connection,
    non-[done] terminal state, or the steal deadline — steals the shard
    back through [run_local]. Returns every shard's result in ascending
    [sr_lo] order, or [Error] if a shard could not run even locally. *)
val scatter :
  t ->
  submit:Proto.submit ->
  run_local:(lo:int -> hi:int -> (shard_result, string) result) ->
  (shard_result list, string) result

(** [merge shards] — the fleet winner: fold in list order with strict [<]
    on the winner score, keeping the earliest shard on ties. Applied to
    {!scatter}'s output this reproduces {!Core.Oblx.best_of}'s winner
    bit-for-bit. *)
val merge : shard_result list -> shard_result option

(** {2 Stats} *)

(** The ["fleet"] block of the daemon's [stats] response: peers, scatter
    counters, and per store (["verdicts"], ["corpus"]) [lookups hits
    pushes push_failures inbound_pushes served_lookups]. *)
val stats_json : t -> Obs.Json.t

(** Verdict lookups a peer answered — the pool's [cache.remote_hits]. *)
val remote_hits : t -> int
