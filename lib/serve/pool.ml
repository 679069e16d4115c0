module Json = Obs.Json

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  state_dir : string option;
  default_moves : int option;
  incremental : bool;  (** move-scoped incremental cost evaluation *)
  fleet : Fleet.t option;  (** peer coordination: scatter + cache replication *)
  log_rotate_bytes : int option;  (** compact jobs.log beyond this size *)
  warm : bool;
      (** seed plain submits from the winner corpus. Recording into the
          corpus is always on (passive, like the journal); this gates
          {e consumption}, so with it off every existing run is
          bit-identical to a corpus-free daemon. *)
  warm_fraction : float;  (** fraction of a job's restarts to seed warm *)
  corpus_capacity : int;  (** total winner-corpus entries kept in memory *)
}

let default_config =
  {
    workers = Core.Oblx.default_jobs ();
    queue_capacity = 64;
    cache_capacity = 64;
    state_dir = None;
    default_moves = None;
    incremental = true;
    fleet = None;
    log_rotate_bytes = None;
    warm = false;
    warm_fraction = 0.5;
    corpus_capacity = 256;
  }

type job_state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type job = {
  id : int;
  spec : Proto.submit;
  submitted_at : float;
  mutable state : job_state;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable worker : int option;
  mutable cache : Core.Compile_cache.outcome option;
  mutable error : string option;  (** [Failed]: the compile error *)
  mutable outcome : Proto.outcome option;
  cancel : string option Atomic.t;
      (** cancellation verdict, polled by the annealer's abort hook *)
  ring : Obs.Sink.Ring.ring option;  (** per-job stage events, on request *)
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (int, job) Hashtbl.t;
  mutable queue : job list;  (** sorted: priority desc, then id asc *)
  mutable next_id : int;
  mutable stopping : bool;
  mutable rejected : int;
  restored : int;  (** jobs replayed from the log at startup *)
  journal : Store.t option;  (** [state_dir/jobs.log] *)
  mutable rotations : int;
  cache : Core.Compile_cache.t;
  summary : Obs.Sink.Summary.summary;
  obs_base : Obs.Trace.t;  (** Moves-level handle over the summary sink *)
  worker_moves : int array;
  worker_busy_s : float array;
  worker_jobs : int array;
  mutable domains : unit Domain.t list;
  started_wall : float;
  corpus : Corpus.t;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Queue discipline                                                    *)
(* ------------------------------------------------------------------ *)

let enqueue queue job =
  let precedes (a : job) (b : job) =
    a.spec.Proto.sb_priority > b.spec.Proto.sb_priority
    || (a.spec.Proto.sb_priority = b.spec.Proto.sb_priority && a.id < b.id)
  in
  let rec insert = function
    | [] -> [ job ]
    | j :: rest when precedes job j -> job :: j :: rest
    | j :: rest -> j :: insert rest
  in
  insert queue

(* ------------------------------------------------------------------ *)
(* Job records                                                         *)
(* ------------------------------------------------------------------ *)

let opt_num = function Some v -> Json.Num v | None -> Json.Null
let num_i i = Json.Num (float_of_int i)
let opt_str = function Some s -> Json.Str s | None -> Json.Null

(* Caller holds the lock. *)
let job_json ~full t (j : job) =
  let wait_s =
    match (j.started_at, j.state, j.finished_at) with
    | Some st, _, _ -> st -. j.submitted_at
    | None, Queued, _ -> now () -. j.submitted_at
    (* Never ran (cancelled while queued, or lost to a restart): the whole
       life of the job was waiting. *)
    | None, _, Some fin -> fin -. j.submitted_at
    | None, _, None -> 0.0
  in
  let run_s =
    match (j.started_at, j.finished_at) with
    | Some st, Some fin -> Some (fin -. st)
    | Some st, None -> Some (now () -. st)
    | None, _ -> None
  in
  let queue_pos =
    match j.state with
    | Queued ->
        let rec pos k = function
          | [] -> None
          | (q : job) :: rest -> if q.id = j.id then Some k else pos (k + 1) rest
        in
        pos 0 t.queue
    | Running | Done | Failed | Cancelled -> None
  in
  let base =
    [
      ("id", num_i j.id);
      ("name", Json.Str j.spec.Proto.sb_name);
      ("state", Json.Str (state_name j.state));
      ("seed", num_i j.spec.Proto.sb_seed);
      ("runs", num_i j.spec.Proto.sb_runs);
      ("priority", num_i j.spec.Proto.sb_priority);
      ("deadline_s", opt_num j.spec.Proto.sb_deadline_s);
      ("queue_position", match queue_pos with Some p -> num_i p | None -> Json.Null);
      ("wait_s", Json.Num wait_s);
      ("run_s", opt_num run_s);
      ("cache", Proto.cache_to_json j.cache);
      ("error", opt_str j.error);
      ("cut_reason", opt_str (match j.outcome with Some o -> o.jo_cut_reason | None -> None));
    ]
  in
  let shard =
    match j.spec.Proto.sb_shard with
    | Some (lo, hi) -> [ ("shard_lo", num_i lo); ("shard_hi", num_i hi) ]
    | None -> []
  in
  let detail =
    match (full, j.outcome) with true, Some o -> Proto.outcome_fields o | _ -> []
  in
  let events =
    if not full then []
    else
      match j.ring with
      | None -> []
      | Some ring ->
          [
            ( "events",
              Json.Arr (List.map Obs.Event.to_json (Obs.Sink.Ring.contents ring)) );
            ("events_dropped", num_i (Obs.Sink.Ring.dropped ring));
          ]
  in
  Json.Obj (base @ shard @ detail @ events)

(* ------------------------------------------------------------------ *)
(* The durable job log                                                 *)
(* ------------------------------------------------------------------ *)

(* [state_dir/jobs.log] is an append-only JSONL journal: one "submit" line
   when a job enters the queue, one "finish" line when it leaves a worker
   (or is cancelled). Each line wraps the same record [job_json] renders,
   plus what that record omits: raw timestamps, the problem source, and
   the submitted move budget. [create] replays it so a restarted daemon
   still answers status/result for every pre-restart job id. *)

let log_append t wrap = Option.iter (fun s -> Store.append s wrap) t.journal

(* The spec fields ([source]/[moves]/[trace]) that let [replay_journal]
   reconstruct a job from this wrap alone. Submit wraps always carry
   them; finish wraps only in a rotated log, where the submit line they
   used to pair with is gone. *)
let spec_fields (j : job) =
  [
    ("source", Json.Str j.spec.Proto.sb_source);
    ("moves", match j.spec.Proto.sb_moves with Some m -> num_i m | None -> Json.Null);
    ("trace", Json.Bool j.spec.Proto.sb_trace);
  ]
  (* The warm snapshot and spec overrides are part of the job's recorded
     inputs: a replayed job must re-run from the same seeds and targets
     regardless of where the live corpus has moved since. *)
  @ (match j.spec.Proto.sb_warm with
    | [] -> []
    | es -> [ ("warm", Json.Arr (List.map Corpus.entry_to_json es)) ])
  @
  match j.spec.Proto.sb_spec_overrides with
  | [] -> []
  | specs ->
      [
        ( "spec_overrides",
          Json.Obj
            (List.map
               (fun (n, good, bad) -> (n, Json.Arr [ Json.Num good; Json.Num bad ]))
               specs) );
      ]

(* Caller holds the lock (wraps a [job_json] rendering). *)
let log_submit_wrap t (j : job) =
  Json.Obj
    ((("log", Json.Str "submit") :: ("t", Json.Num j.submitted_at) :: spec_fields j)
    @ [ ("job", job_json ~full:false t j) ])

let log_finish_wrap ?(spec = false) (j : job) rendered =
  Json.Obj
    ([
       ("log", Json.Str "finish");
       ("t", (match j.finished_at with Some v -> Json.Num v | None -> Json.Null));
       ("submitted_at", Json.Num j.submitted_at);
       ("started_at", opt_num j.started_at);
     ]
    @ (if spec then spec_fields j else [])
    @ [ ("job", rendered) ])

(* --- Rotation: compact the journal while the daemon runs -------------- *)

(* When jobs.log grows past [log_rotate_bytes], rewrite it as one
   self-contained terminal record per finished job (a finish wrap carrying
   the spec fields a submit line used to provide) plus the original submit
   line for every job still queued or running. Replay fidelity is exact:
   the terminal records are the same [job_json ~full:true] renderings the
   original finish lines held; {!Store.compact} makes the swap atomic.

   Lock order: [t.mutex] (to render every job consistently and keep the
   table still until the swap) then the store's lock; [log_append] takes
   only the store's. A finish racing the rotation can append its record
   right after the swap — a duplicate terminal line for that id, which
   replay applies idempotently. *)
let maybe_rotate t =
  match (t.journal, t.cfg.log_rotate_bytes) with
  | Some store, Some limit when Store.bytes store > limit ->
      locked t (fun () ->
          if Store.bytes store > limit then begin
            Hashtbl.fold (fun id _ acc -> id :: acc) t.jobs []
            |> List.sort compare
            |> List.map (fun id ->
                   let j = Hashtbl.find t.jobs id in
                   match j.state with
                   | Done | Failed | Cancelled ->
                       log_finish_wrap ~spec:true j (job_json ~full:true t j)
                   | Queued | Running -> log_submit_wrap t j)
            |> Store.compact store;
            t.rotations <- t.rotations + 1
          end)
  | _ -> ()

let finish t (j : job) ~worker ~state ?error ?outcome () =
  let wrap =
    locked t (fun () ->
        j.state <- state;
        j.finished_at <- Some (now ());
        (match error with Some _ -> j.error <- error | None -> ());
        (match outcome with Some _ -> j.outcome <- outcome | None -> ());
        (match (worker, j.started_at, j.finished_at) with
        | Some w, Some st, Some fin ->
            t.worker_busy_s.(w) <- t.worker_busy_s.(w) +. (fin -. st);
            t.worker_jobs.(w) <- t.worker_jobs.(w) + 1;
            (match outcome with
            | Some o -> t.worker_moves.(w) <- t.worker_moves.(w) + o.jo_moves
            | None -> ())
        | _ -> ());
        log_finish_wrap j (job_json ~full:true t j))
  in
  log_append t wrap;
  maybe_rotate t

(* --- Replay: jobs.log lines back into job records ------------------- *)

let jstr j k = match Json.mem_opt k j with Some (Json.Str s) -> Some s | _ -> None
let jnum j k = match Json.mem_opt k j with Some (Json.Num v) -> Some v | _ -> None
let jint j k = Option.map int_of_float (jnum j k)

let state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | _ -> None

let spec_of_log wrap jobj =
  {
    Proto.sb_name = Option.value (jstr jobj "name") ~default:"";
    sb_source = Option.value (jstr wrap "source") ~default:"";
    sb_seed = Option.value (jint jobj "seed") ~default:1;
    sb_moves = jint wrap "moves";
    sb_runs = Option.value (jint jobj "runs") ~default:1;
    sb_priority = Option.value (jint jobj "priority") ~default:0;
    sb_deadline_s = jnum jobj "deadline_s";
    sb_trace =
      (match Json.mem_opt "trace" wrap with Some (Json.Bool b) -> b | _ -> false);
    sb_shard =
      (match (jint jobj "shard_lo", jint jobj "shard_hi") with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None);
    (* Variants are not journaled with the spec — a replayed sweep job is
       already finished, and its verdict table replays from the outcome. *)
    sb_sweep = [];
    sb_warm =
      (match Json.mem_opt "warm" wrap with
      | Some (Json.Arr es) ->
          List.filter_map (fun e -> Result.to_option (Corpus.entry_of_json e)) es
      | _ -> []);
    sb_spec_overrides =
      (match Json.mem_opt "spec_overrides" wrap with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (n, v) ->
              match v with
              | Json.Arr [ Json.Num good; Json.Num bad ] -> Some (n, good, bad)
              | _ -> None)
            kvs
      | _ -> []);
  }

let fresh_job ~id ~spec ~submitted_at =
  {
    id;
    spec;
    submitted_at;
    state = Queued;
    started_at = None;
    finished_at = None;
    worker = None;
    cache = None;
    error = None;
    outcome = None;
    cancel = Atomic.make None;
    ring = None;
  }

(* Open [path] and rebuild its jobs, in submission order; ones whose
   latest record still says queued/running were interrupted by the
   crash/restart. *)
let replay_journal path =
  let table : (int, job) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let replay wrap =
    match (jstr wrap "log", Json.mem_opt "job" wrap) with
    | Some kind, Some jobj -> begin
        match jint jobj "id" with
        | None -> ()
        | Some id ->
            let job =
              match Hashtbl.find_opt table id with
              | Some j -> j
              | None ->
                  let submitted_at =
                    jnum wrap (if kind = "submit" then "t" else "submitted_at")
                  in
                  let j =
                    fresh_job ~id ~spec:(spec_of_log wrap jobj)
                      ~submitted_at:(Option.value submitted_at ~default:0.0)
                  in
                  order := id :: !order;
                  Hashtbl.replace table id j;
                  j
            in
            if kind = "finish" then begin
              (match Option.bind (jstr jobj "state") state_of_name with
              | Some ((Done | Failed | Cancelled) as st) -> job.state <- st
              | Some (Queued | Running) | None -> ());
              job.started_at <- jnum wrap "started_at";
              job.finished_at <- jnum wrap "t";
              job.cache <- Proto.cache_of_json (Json.mem_opt "cache" jobj);
              job.error <- jstr jobj "error";
              job.outcome <- Proto.outcome_of_json jobj
            end
      end
    | _ -> ()
  in
  let store = Store.open_ path ~replay in
  (store, List.rev_map (Hashtbl.find table) !order)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* The fleet-aware compile path: local cache first (the common case),
   then — on a local miss — the peers' verdicts before spending a compile.
   Equivalent to [Core.Compile_cache.compile] when no fleet is configured:
   [find]/[add] are its two halves. *)
let compile_for_job t ?corner source =
  match Core.Compile_cache.key_of_source ?corner source with
  | Error e -> Error (e, Core.Compile_cache.Miss) (* unparseable: never cached *)
  | Ok key -> begin
      match Core.Compile_cache.find t.cache ~key with
      | Some (Ok p) -> Ok (p, Core.Compile_cache.Hit)
      | Some (Error e) -> Error (e, Core.Compile_cache.Hit)
      | None -> begin
          let remote =
            match t.cfg.fleet with
            | Some f -> Fleet.lookup f Proto.Verdicts ~key
            | None -> []
          in
          match remote with
          | Proto.Verdict (_, Some e) :: _ ->
              (* The fleet already knows this source fails: fail fast and
                 cache the verdict so the next submission is a local hit. *)
              Core.Compile_cache.add t.cache ~key (Error e);
              Error (e, Core.Compile_cache.Miss)
          | _ -> begin
              (* Known-good elsewhere still compiles here (compiled
                 problems hold closures and cannot cross the wire), but
                 the remote hit is counted by the fleet. *)
              let value = Core.Compile.compile_source ?corner source in
              Core.Compile_cache.add t.cache ~key value;
              (match (remote, t.cfg.fleet) with
              | [], Some f ->
                  (* A genuinely new verdict propagates; one the fleet told
                     us about doesn't need to go back out. *)
                  Fleet.push f
                    (Proto.Verdict (key, match value with Ok _ -> None | Error e -> Some e))
              | _ -> ());
              match value with
              | Ok p -> Ok (p, Core.Compile_cache.Miss)
              | Error e -> Error (e, Core.Compile_cache.Miss)
            end
        end
    end

(* The job-level cut reason: the winner's, or the first restart that
   reported one (a deadline can fire during restart k > 0 while the
   winner ran to completion). *)
let cut_reason_of best all =
  match best.Core.Oblx.cut_reason with
  | Some r -> Some r
  | None -> List.find_map (fun (r : Core.Oblx.result) -> r.Core.Oblx.cut_reason) all

(* Position of the winner in the executed range — [best] is one of [all]
   by construction, compared physically because results carry floats. *)
let winner_index best all =
  let rec go i = function
    | [] -> 0
    | r :: rest -> if r == best then i else go (i + 1) rest
  in
  go 0 all

let sum_moves all =
  List.fold_left (fun a (r : Core.Oblx.result) -> a + r.Core.Oblx.moves) 0 all

let sum_evals all =
  List.fold_left (fun a (r : Core.Oblx.result) -> a + r.Core.Oblx.evals) 0 all

(* What an annealing run over restarts [lo, ...) leaves on a job record. *)
let outcome_of_run p ~lo ~shape (best : Core.Oblx.result) all =
  {
    Proto.jo_best_cost = best.Core.Oblx.best_cost;
    jo_moves = sum_moves all;
    jo_evals = sum_evals all;
    jo_cut_reason = cut_reason_of best all;
    jo_predicted = best.Core.Oblx.predicted;
    jo_sizes = Core.Report.sizes p best.Core.Oblx.final;
    jo_winner_restart = Some (lo + winner_index best all);
    jo_winner_score = Some (Core.Oblx.score p best);
    jo_sweep = [];
    jo_shape = shape;
    jo_warm = best.Core.Oblx.warm;
    jo_winner =
      Some
        ( Array.copy best.Core.Oblx.final.Core.State.values,
          Array.copy best.Core.Oblx.final.Core.State.grid_index,
          best.Core.Oblx.probs );
  }

(* "ok" for one sweep row: every specification at or inside its good
   target. The direction comes from the good/bad ordering — good <= bad
   means smaller is better — the same normalization the cost uses. *)
let specs_met (p : Core.Problem.t) predicted =
  List.for_all
    (fun (s : Core.Problem.spec) ->
      match List.assoc_opt s.Core.Problem.spec_name predicted with
      | Some (Some v) ->
          if s.Core.Problem.good <= s.Core.Problem.bad then v <= s.Core.Problem.good
          else v >= s.Core.Problem.good
      | Some None | None -> false)
    p.Core.Problem.specs

(* Re-target good/bad on the compiled problem without recompiling: the
   spec list keeps its order, so the depgraph's per-spec rows stay
   aligned. An override naming no spec is a caller bug, reported per
   variant rather than silently ignored. *)
let override_specs (p : Core.Problem.t) overrides =
  let missing =
    List.filter_map
      (fun (n, _, _) ->
        if Option.is_none (Core.Problem.find_spec p n) then Some n else None)
      overrides
  in
  match (missing, overrides) with
  | _ :: _, _ ->
      Error (Printf.sprintf "unknown spec(s): %s" (String.concat ", " missing))
  | [], [] -> Ok p
  | [], _ ->
      Ok
        {
          p with
          Core.Problem.specs =
            List.map
              (fun (s : Core.Problem.spec) ->
                match
                  List.find_opt (fun (n, _, _) -> n = s.Core.Problem.spec_name) overrides
                with
                | Some (_, good, bad) -> { s with Core.Problem.good; bad }
                | None -> s)
              p.Core.Problem.specs;
        }

(* Per-job telemetry shard: this worker buffers its own events and merges
   them into the shared summary in batches at stage boundaries, so
   concurrent workers don't serialize the daemon's telemetry per event.
   A traced job's ring rides next to the summary, capped at Stage level:
   a job's recent history, not a move torrent. *)
let job_shard t (j : job) =
  Obs.Shard.create
    (match j.ring with
    | Some ring ->
        Obs.Sink.filtered ~level:Obs.Event.Stage (Obs.Sink.Ring.sink ring)
        :: Obs.Trace.sinks t.obs_base
    | None -> Obs.Trace.sinks t.obs_base)

(* One annealing run for job [j] on this worker, its events into buffer
   [buffer] of [shard]. The deadline is a latency bound from submission,
   so the queue wait already spent part of it — recomputed per call
   because a stolen shard starts later than the scatter did; an exhausted
   budget still runs, aborting at move 0 via the annealer's pre-loop
   poll. *)
let anneal t (j : job) shard ~buffer ?restarts ?warm_starts p =
  let deadline_s =
    Option.map
      (fun budget -> Float.max 0.0 (budget -. (now () -. j.submitted_at)))
      j.spec.Proto.sb_deadline_s
  in
  let moves = match j.spec.Proto.sb_moves with Some m -> Some m | None -> t.cfg.default_moves in
  Core.Oblx.run_job ~seed:j.spec.Proto.sb_seed ?moves ~runs:j.spec.Proto.sb_runs ~jobs:1
    ~incremental:t.cfg.incremental ?restarts ?deadline_s ?warm_starts
    ~poll:(fun () -> Atomic.get j.cancel)
    ~obs:(Obs.Trace.with_sinks t.obs_base [ Obs.Shard.for_restart shard buffer ])
    p

(* A sweep job: one (jobs = 1) synthesis per variant, run sequentially on
   this worker, every compile routed through the shared cache under its
   (canon, corner) key — the first variant at a given key compiles, the
   rest hit. Sequential jobs = 1 execution makes the verdict table a
   deterministic function of (source, variants, seed), independent of the
   pool's worker count. Sweep jobs are never scattered across a fleet:
   the shared compile is the point. *)
let run_sweep t (j : job) ~worker =
  let shard = job_shard t j in
  let rows = ref [] in
  (* The cross-variant winner, for the job-level summary fields. *)
  let best : (float * Core.Problem.t * Core.Oblx.result) option ref = ref None in
  let variant k (v : Proto.variant) =
    let row ?cache ?error () =
      {
        Proto.sv_name = v.Proto.vr_name;
        sv_corner = v.Proto.vr_corner;
        sv_cache = cache;
        sv_best_cost = None;
        sv_ok = None;
        sv_error = error;
        sv_predicted = [];
        sv_moves = 0;
        sv_evals = 0;
        sv_cut_reason = None;
      }
    in
    let fail ?cache e = row ?cache ~error:e () in
    let corner =
      match v.Proto.vr_corner with
      | None -> Ok None
      | Some c -> begin
          match Devices.Registry.find_corner c with
          | Some corner -> Ok (Some corner)
          | None -> Error (Printf.sprintf "unknown corner %S" c)
        end
    in
    match corner with
    | Error e -> fail e
    | Ok corner -> begin
        match compile_for_job t ?corner j.spec.Proto.sb_source with
        | Error (e, cache) -> fail ~cache e
        | Ok (p, cache) -> begin
            match override_specs p v.Proto.vr_specs with
            | Error e -> fail ~cache e
            | Ok p' -> begin
                match anneal t j shard ~buffer:k p' with
                | b, all ->
                    (match !best with
                    | Some (c, _, _) when c <= b.Core.Oblx.best_cost -> ()
                    | Some _ | None -> best := Some (b.Core.Oblx.best_cost, p', b));
                    {
                      (row ~cache ()) with
                      sv_best_cost = Some b.Core.Oblx.best_cost;
                      sv_ok = Some (specs_met p' b.Core.Oblx.predicted);
                      sv_predicted = b.Core.Oblx.predicted;
                      sv_moves = sum_moves all;
                      sv_evals = sum_evals all;
                      sv_cut_reason = cut_reason_of b all;
                    }
                | exception exn -> fail ~cache (Printexc.to_string exn)
              end
          end
      end
  in
  Fun.protect
    ~finally:(fun () -> Obs.Shard.drain shard)
    (fun () ->
      List.iteri
        (fun k v -> if Atomic.get j.cancel = None then rows := variant k v :: !rows)
        j.spec.Proto.sb_sweep;
      let rows = List.rev !rows in
      (* The job-level cache field reports the first variant's outcome
         (informational); the per-row outcomes are authoritative. *)
      (match rows with
      | { Proto.sv_cache = Some c; _ } :: _ -> locked t (fun () -> j.cache <- Some c)
      | _ -> ());
      let summary =
        {
          Proto.jo_best_cost = 0.0;
          jo_moves = List.fold_left (fun a r -> a + r.Proto.sv_moves) 0 rows;
          jo_evals = List.fold_left (fun a r -> a + r.Proto.sv_evals) 0 rows;
          jo_cut_reason = List.find_map (fun r -> r.Proto.sv_cut_reason) rows;
          jo_predicted = [];
          jo_sizes = [];
          jo_winner_restart = None;
          jo_winner_score = None;
          jo_sweep = rows;
          jo_shape = None;
          jo_warm = None;
          jo_winner = None;
        }
      in
      let cancelled = Atomic.get j.cancel <> None in
      match !best with
      | None ->
          (* Every variant failed (or the job was cancelled before any
             completed): the rows still ride on the outcome so the caller
             sees per-variant reasons. *)
          let error =
            match List.find_opt (fun r -> r.Proto.sv_error <> None) rows with
            | Some { Proto.sv_name; sv_error = Some e; _ } -> Printf.sprintf "%s: %s" sv_name e
            | _ -> "sweep: no variant completed"
          in
          finish t j ~worker:(Some worker)
            ~state:(if cancelled then Cancelled else Failed)
            ~error ~outcome:summary ()
      | Some (cost, pw, bw) ->
          finish t j ~worker:(Some worker)
            ~state:(if cancelled then Cancelled else Done)
            ~outcome:
              {
                summary with
                jo_best_cost = cost;
                jo_predicted = bw.Core.Oblx.predicted;
                jo_sizes = Core.Report.sizes pw bw.Core.Oblx.final;
                jo_winner_score = Some (Core.Oblx.score pw bw);
              }
            ())

(* Both hashes of a problem source in one parse: the full canon key and
   the spec-value-free shape key the corpus buckets by. *)
let hashes_of_source src =
  match Netlist.Parser.parse_problem src with
  | ast -> Some (Netlist.Canon.problem_hash ast, Netlist.Canon.problem_shape_hash ast)
  | exception Netlist.Parser.Error _ -> None

let run_job t (j : job) ~worker =
  if j.spec.Proto.sb_sweep <> [] then run_sweep t j ~worker
  else
  match compile_for_job t j.spec.Proto.sb_source with
  | Error (e, cache_outcome) ->
      (* The cache deliberately remembers failures; report the real
         hit/miss so repeated broken submissions don't read as misses. *)
      locked t (fun () -> j.cache <- Some cache_outcome);
      finish t j ~worker:(Some worker) ~state:Failed ~error:e ()
  | Ok (compiled, cache_outcome) -> begin
      locked t (fun () -> j.cache <- Some cache_outcome);
      (* Spec re-targets (the resynthesize fast path) bind after the
         compile: the cache hit above is the point — the overridden
         problem shares the parent's compiled closures. *)
      match override_specs compiled j.spec.Proto.sb_spec_overrides with
      | Error e -> finish t j ~worker:(Some worker) ~state:Failed ~error:e ()
      | Ok p ->
      (* Buffer [k] of the shard belongs to the run over the restart range
         starting at [k]: a plain job uses buffer 0 only; a scattered job
         gives each locally-run shard (shard 0 and any steals, which run
         on concurrent threads) its own buffer. *)
      let shard = job_shard t j in
      (* The journaled warm snapshot, attached positionally: global
         restart k < |sb_warm| seeds from entry k (the rest stay cold).
         Indices are global, so a sharded execution passes the full
         array and [best_of] picks the seeds its range covers — the
         same attachment for any fleet split. *)
      let warm_starts =
        Array.of_list (List.map Corpus.warm_start_of_entry j.spec.Proto.sb_warm)
      in
      let hashes = hashes_of_source j.spec.Proto.sb_source in
      let shape = Option.map snd hashes in
      let run_range ?restarts () =
        let lo = match restarts with Some (lo, _) -> lo | None -> 0 in
        let best, all = anneal t j shard ~buffer:lo ?restarts ~warm_starts p in
        outcome_of_run p ~lo ~shape best all
      in
      let local_shard ~lo ~hi =
        match run_range ~restarts:(lo, hi) () with
        | o ->
            Ok { Fleet.sr_lo = lo; sr_hi = hi; sr_peer = None; sr_stolen = false; sr_outcome = o }
        | exception exn -> Error (Printexc.to_string exn)
      in
      (* Record a finished job's winner in the corpus (and replicate a
         genuinely new entry to peers). Only whole jobs record — a shard
         execution's winner is partial; the coordinator records the
         merged one. Recording is unconditional on [cfg.warm]: the
         corpus fills passively like the journal, [warm] only gates
         whether submits read from it. *)
      let record_corpus (outcome : Proto.outcome) =
        match (j.spec.Proto.sb_shard, outcome.Proto.jo_winner, hashes) with
        | None, Some (values, grid, probs), Some (canon, shape) ->
            let entry =
              {
                Corpus.en_shape = shape;
                en_canon = canon;
                en_job = j.id;
                en_name = j.spec.Proto.sb_name;
                en_cost = outcome.Proto.jo_best_cost;
                en_values = values;
                en_grid = grid;
                en_probs = probs;
              }
            in
            if Corpus.add t.corpus entry then
              Option.iter (fun f -> Fleet.push f (Proto.Entry entry)) t.cfg.fleet
        | _ -> ()
      in
      let finish_with outcome =
        let state = if Atomic.get j.cancel <> None then Cancelled else Done in
        finish t j ~worker:(Some worker) ~state ~outcome ();
        if state = Done then record_corpus outcome
      in
      Fun.protect
        ~finally:(fun () -> Obs.Shard.drain shard)
        (fun () ->
          match t.cfg.fleet with
          | Some f
            when j.spec.Proto.sb_shard = None && j.spec.Proto.sb_runs > 1 && Fleet.peers f <> []
            -> begin
              (* Coordinator path: shard the budget over the fleet, steal
                 what dies, merge by the winner rule. *)
              match Fleet.scatter f ~submit:j.spec ~run_local:local_shard with
              | Error e ->
                  finish t j ~worker:(Some worker) ~state:Failed
                    ~error:(Printf.sprintf "fleet scatter failed: %s" e)
                    ()
              | Ok shards ->
                  let w = (Option.get (Fleet.merge shards)).Fleet.sr_outcome in
                  let total f = List.fold_left (fun a s -> a + f s.Fleet.sr_outcome) 0 shards in
                  finish_with
                    {
                      w with
                      Proto.jo_moves = total (fun o -> o.Proto.jo_moves);
                      jo_evals = total (fun o -> o.Proto.jo_evals);
                      jo_cut_reason =
                        (match w.Proto.jo_cut_reason with
                        | Some r -> Some r
                        | None ->
                            List.find_map
                              (fun s -> s.Fleet.sr_outcome.Proto.jo_cut_reason)
                              shards);
                      jo_shape = shape;
                    }
            end
          | Some _ | None ->
              (* Plain or shard-executing path: anneal the requested range
                 (the whole budget when unsharded) on this worker. *)
              finish_with (run_range ?restarts:j.spec.Proto.sb_shard ()))
    end

let rec worker_loop t ~worker =
  let job =
    locked t (fun () ->
        while t.queue = [] && not t.stopping do
          Condition.wait t.nonempty t.mutex
        done;
        match t.queue with
        | [] -> None (* stopping *)
        | j :: rest ->
            t.queue <- rest;
            j.state <- Running;
            j.started_at <- Some (now ());
            j.worker <- Some worker;
            Some j)
  in
  match job with
  | None -> ()
  | Some j ->
      (match run_job t j ~worker with
      | () -> ()
      | exception exn ->
          (* A worker must outlive any single job: record the wreckage and
             move on. *)
          finish t j ~worker:(Some worker) ~state:Failed
            ~error:(Printf.sprintf "internal error: %s" (Printexc.to_string exn))
            ());
      worker_loop t ~worker

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create cfg =
  if cfg.workers < 0 then invalid_arg "Pool.create: workers must be >= 0";
  if cfg.queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity must be >= 1";
  let journal, restored_jobs =
    match cfg.state_dir with
    | None -> (None, [])
    | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let store, jobs = replay_journal (Filename.concat dir "jobs.log") in
        (Some store, jobs)
  in
  let summary = Obs.Sink.Summary.create () in
  let t =
    {
      cfg;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Hashtbl.create 64;
      queue = [];
      next_id = List.fold_left (fun acc (j : job) -> Int.max acc (j.id + 1)) 0 restored_jobs;
      stopping = false;
      rejected = 0;
      restored = List.length restored_jobs;
      journal;
      rotations = 0;
      cache = Core.Compile_cache.create ~capacity:cfg.cache_capacity ();
      summary;
      obs_base = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Summary.sink summary ];
      worker_moves = Array.make (Int.max 1 cfg.workers) 0;
      worker_busy_s = Array.make (Int.max 1 cfg.workers) 0.0;
      worker_jobs = Array.make (Int.max 1 cfg.workers) 0;
      domains = [];
      started_wall = now ();
      corpus =
        Corpus.create ~capacity:cfg.corpus_capacity
          ?path:(Option.map (fun dir -> Filename.concat dir "corpus.log") cfg.state_dir)
          ();
    }
  in
  List.iter (fun (j : job) -> Hashtbl.replace t.jobs j.id j) restored_jobs;
  (* A job the previous daemon never finished cannot be resumed (its worker
     died mid-anneal); fail it loudly rather than letting it vanish. This
     also journals the verdict, so a second restart replays it as failed. *)
  List.iter
    (fun (j : job) ->
      match j.state with
      | Queued | Running ->
          finish t j ~worker:None ~state:Failed ~error:"daemon restarted" ()
      | Done | Failed | Cancelled -> ())
    restored_jobs;
  t.domains <-
    List.init cfg.workers (fun w ->
        Domain.spawn (fun () ->
            (* Spawned domains start with the default nursery regardless of
               the parent's settings; size this worker's for the annealing
               hot path so minor collections (stop-the-world across all
               domains) stay rare. *)
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = Core.Oblx.arena_minor_heap_words };
            worker_loop t ~worker:w));
  t

let submit t (s : Proto.submit) =
  if s.Proto.sb_runs < 1 then Error "runs must be >= 1"
  else if String.trim s.Proto.sb_source = "" then Error "empty problem source"
  else if s.Proto.sb_sweep <> [] && s.Proto.sb_shard <> None then
    Error "sweep jobs cannot be sharded"
  else if
    List.exists (fun (v : Proto.variant) -> String.trim v.Proto.vr_name = "") s.Proto.sb_sweep
  then Error "sweep variant names must be non-empty"
  else if s.Proto.sb_sweep <> [] && s.Proto.sb_warm <> [] then
    Error "sweep jobs cannot be warm-started"
  else if s.Proto.sb_sweep <> [] && s.Proto.sb_spec_overrides <> [] then
    Error "sweep jobs take spec overrides per variant, not job-wide"
  else if List.length s.Proto.sb_warm > s.Proto.sb_runs then
    Error
      (Printf.sprintf "%d warm seeds for %d runs" (List.length s.Proto.sb_warm)
         s.Proto.sb_runs)
  else if
    match s.Proto.sb_shard with
    | Some (lo, hi) -> lo < 0 || lo >= hi || hi > s.Proto.sb_runs
    | None -> false
  then
    Error
      (let lo, hi = Option.get s.Proto.sb_shard in
       Printf.sprintf "invalid shard [%d,%d) for %d runs" lo hi s.Proto.sb_runs)
  else begin
    (* Warm-start consumption: a plain submit on a warm-enabled daemon
       snapshots the corpus's best entries for the problem's shape into
       the spec — at most [warm_fraction] of the restarts, the rest
       staying cold so the search never collapses onto its own history.
       The snapshot is journaled with the submit (it is part of the
       job's recorded inputs): a replay re-runs from these exact seeds
       no matter what the live corpus holds by then. Explicit sb_warm
       (a resynthesize, or a scattered shard carrying its coordinator's
       snapshot) is left untouched. *)
    let s =
      if
        t.cfg.warm
        && s.Proto.sb_shard = None
        && s.Proto.sb_sweep = []
        && s.Proto.sb_warm = []
      then begin
        match Corpus.shape_of_source s.Proto.sb_source with
        | None -> s
        | Some shape ->
            let n_warm =
              Int.min s.Proto.sb_runs
                (int_of_float (t.cfg.warm_fraction *. float_of_int s.Proto.sb_runs))
            in
            if n_warm <= 0 then s
            else begin
              let rec take n = function
                | [] -> []
                | _ when n = 0 -> []
                | e :: rest -> e :: take (n - 1) rest
              in
              match take n_warm (Corpus.lookup t.corpus shape) with
              | [] -> s
              | warm -> { s with Proto.sb_warm = warm }
            end
      end
      else s
    in
    let admitted =
      locked t (fun () ->
          if t.stopping then Error "daemon is shutting down"
          else if List.length t.queue >= t.cfg.queue_capacity then begin
            t.rejected <- t.rejected + 1;
            Error
              (Printf.sprintf "queue full: %d jobs queued (capacity %d) — retry later"
                 (List.length t.queue) t.cfg.queue_capacity)
          end
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            let job =
              {
                (fresh_job ~id ~spec:s ~submitted_at:(now ())) with
                ring =
                  (if s.Proto.sb_trace then Some (Obs.Sink.Ring.create ~capacity:256)
                   else None);
              }
            in
            Hashtbl.add t.jobs id job;
            Ok (id, job, log_submit_wrap t job)
          end)
    in
    match admitted with
    | Error e -> Error e
    | Ok (id, job, wrap) ->
        (* Journal before the job becomes runnable: a worker cannot emit
           the finish record ahead of the submit record it pairs with. *)
        log_append t wrap;
        maybe_rotate t;
        let enqueued =
          locked t (fun () ->
              if t.stopping then false
              else begin
                t.queue <- enqueue t.queue job;
                Condition.signal t.nonempty;
                true
              end)
        in
        (* Shutdown slipped between admission and enqueue: the drain pass
           never saw this job, so record the cancellation here. *)
        if not enqueued then begin
          Atomic.set job.cancel (Some "shutdown");
          finish t job ~worker:None ~state:Cancelled ()
        end;
        Ok id
  end

let find_job t id = Hashtbl.find_opt t.jobs id

let cancel t id =
  let finish_queued =
    locked t (fun () ->
        match find_job t id with
        | None -> Error (Printf.sprintf "unknown job %d" id)
        | Some j -> begin
            match j.state with
            | Queued ->
                Atomic.set j.cancel (Some "cancelled");
                t.queue <- List.filter (fun (q : job) -> q.id <> id) t.queue;
                Ok (Some j)
            | Running ->
                (* The annealer's abort hook picks this up at its next poll;
                   the worker records the final state. *)
                Atomic.set j.cancel (Some "cancelled");
                Ok None
            | Done | Failed | Cancelled ->
                Error (Printf.sprintf "job %d already %s" id (state_name j.state))
          end)
  in
  match finish_queued with
  | Error e -> Error e
  | Ok None -> Ok ()
  | Ok (Some j) ->
      finish t j ~worker:None ~state:Cancelled ();
      Ok ()

let with_job t id f =
  locked t (fun () ->
      match find_job t id with
      | None -> Error (Printf.sprintf "unknown job %d" id)
      | Some j -> Ok (f j))

let status_json t id = with_job t id (fun j -> job_json ~full:false t j)
let result_json t id = with_job t id (fun j -> job_json ~full:true t j)

let stats_json t =
  let cache = Core.Compile_cache.stats t.cache in
  let telemetry = Obs.Sink.Summary.stats t.summary in
  locked t (fun () ->
      let by_state = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ (j : job) ->
          let k = state_name j.state in
          Hashtbl.replace by_state k (1 + Option.value (Hashtbl.find_opt by_state k) ~default:0))
        t.jobs;
      let count k = Option.value (Hashtbl.find_opt by_state k) ~default:0 in
      let lookups = cache.Core.Compile_cache.hits + cache.Core.Compile_cache.misses in
      Proto.ok
        [
          ("uptime_s", Json.Num (now () -. t.started_wall));
          ("workers", num_i t.cfg.workers);
          ("queue_depth", num_i (List.length t.queue));
          ("queue_capacity", num_i t.cfg.queue_capacity);
          ( "jobs",
            Json.Obj
              [
                ("total", num_i (Hashtbl.length t.jobs));
                ("queued", num_i (count "queued"));
                ("running", num_i (count "running"));
                ("done", num_i (count "done"));
                ("failed", num_i (count "failed"));
                ("cancelled", num_i (count "cancelled"));
                ("rejected", num_i t.rejected);
              ] );
          ("restored_jobs", num_i t.restored);
          ( "cache",
            Json.Obj
              [
                ("hits", num_i cache.Core.Compile_cache.hits);
                ("misses", num_i cache.Core.Compile_cache.misses);
                ( "remote_hits",
                  num_i
                    (match t.cfg.fleet with Some f -> Fleet.remote_hits f | None -> 0) );
                ("entries", num_i cache.Core.Compile_cache.entries);
                ("evictions", num_i cache.Core.Compile_cache.evictions);
                ("capacity", num_i cache.Core.Compile_cache.capacity);
                ( "hit_rate",
                  if lookups = 0 then Json.Null
                  else Json.Num (float_of_int cache.Core.Compile_cache.hits /. float_of_int lookups)
                );
              ] );
          ( "journal",
            Json.Obj
              [
                ("bytes", num_i (match t.journal with Some s -> Store.bytes s | None -> 0));
                ("rotations", num_i t.rotations);
                ( "rotate_bytes",
                  match t.cfg.log_rotate_bytes with Some b -> num_i b | None -> Json.Null );
              ] );
          ( "telemetry",
            Json.Obj
              [
                ("moves", num_i telemetry.Obs.Sink.Summary.moves);
                ("accepted", num_i telemetry.Obs.Sink.Summary.accepted);
                ("events", num_i telemetry.Obs.Sink.Summary.events);
              ] );
          ("eval_mode", Json.Str (if t.cfg.incremental then "incremental" else "full"));
          ( "evals",
            (* Aggregated incremental-evaluator counters over the latest
               snapshot per restart — cache effectiveness at a glance. *)
            let rows = telemetry.Obs.Sink.Summary.eval_rows in
            let sum f = List.fold_left (fun a (_, e) -> a + f e) 0 rows in
            if rows = [] then Json.Null
            else
              Json.Obj
                [
                  ("full", num_i (sum (fun e -> e.Obs.Event.full)));
                  ("incremental", num_i (sum (fun e -> e.Obs.Event.incr)));
                  ("op_hits", num_i (sum (fun e -> e.Obs.Event.op_hits)));
                  ("op_misses", num_i (sum (fun e -> e.Obs.Event.op_misses)));
                  ("rom_builds", num_i (sum (fun e -> e.Obs.Event.rom_builds)));
                  ("rom_reuses", num_i (sum (fun e -> e.Obs.Event.rom_reuses)));
                  ("spec_evals", num_i (sum (fun e -> e.Obs.Event.spec_evals)));
                  ("spec_reuses", num_i (sum (fun e -> e.Obs.Event.spec_reuses)));
                  ("resyncs", num_i (sum (fun e -> e.Obs.Event.resyncs)));
                  ( "resync_mismatches",
                    num_i (sum (fun e -> e.Obs.Event.resync_mismatches)) );
                  ("probes", num_i (sum (fun e -> e.Obs.Event.probes)));
                  ( "probe_rom_builds",
                    num_i (sum (fun e -> e.Obs.Event.probe_rom_builds)) );
                  ( "probe_fallbacks",
                    num_i (sum (fun e -> e.Obs.Event.probe_fallbacks)) );
                  ("mom_reuses", num_i (sum (fun e -> e.Obs.Event.mom_reuses)));
                  ( "mom_refreshes",
                    num_i (sum (fun e -> e.Obs.Event.mom_refreshes)) );
                ] );
          ( "corpus",
            let c = Corpus.stats t.corpus in
            Json.Obj
              [
                ("entries", num_i c.Corpus.entries);
                ("shapes", num_i c.Corpus.shapes);
                ("capacity", num_i t.cfg.corpus_capacity);
                ("adds", num_i c.Corpus.adds);
                ("evictions", num_i c.Corpus.evictions);
                ("hits", num_i c.Corpus.hits);
                ("lookups", num_i c.Corpus.lookups);
                ("replayed", num_i c.Corpus.replayed);
                ("warm", Json.Bool t.cfg.warm);
                ("warm_fraction", Json.Num t.cfg.warm_fraction);
              ] );
          ( "fleet",
            match t.cfg.fleet with Some f -> Fleet.stats_json f | None -> Json.Null );
          ( "workers_detail",
            Json.Arr
              (List.init t.cfg.workers (fun w ->
                   Json.Obj
                     [
                       ("worker", num_i w);
                       ("jobs", num_i t.worker_jobs.(w));
                       ("moves", num_i t.worker_moves.(w));
                       ("busy_s", Json.Num t.worker_busy_s.(w));
                       ( "moves_per_s",
                         if t.worker_busy_s.(w) > 0.0 then
                           Json.Num (float_of_int t.worker_moves.(w) /. t.worker_busy_s.(w))
                         else Json.Null );
                     ])) );
        ])

(* --- Replication: the lookup / push verbs ------------------------------ *)

let fleet t = t.cfg.fleet

(* Only what this daemon's own stores hold — never a recursive ask around
   the fleet, so lookups between peers can't loop. *)
let lookup t store ~key =
  Option.iter (fun f -> Fleet.record_served_lookup f store) t.cfg.fleet;
  match store with
  | Proto.Verdicts -> begin
      match Core.Compile_cache.peek t.cache ~key with
      | None -> []
      | Some v -> [ Proto.Verdict (key, match v with Ok () -> None | Error e -> Some e) ]
    end
  | Proto.Winners -> List.map (fun e -> Proto.Entry e) (Corpus.lookup t.corpus key)

(* An inbound push is absorbed, not passed on: every daemon pushes its own
   records to every peer directly. A known-bad verdict lands in the
   compile cache so the next submission of that source fails fast;
   known-good can't — there is no compiled problem to cache. *)
let note t record =
  Option.iter (fun f -> Fleet.record_inbound_push f (Proto.store_of_record record)) t.cfg.fleet;
  match record with
  | Proto.Verdict (key, Some e) -> Core.Compile_cache.add t.cache ~key (Error e)
  | Proto.Verdict (_, None) -> ()
  | Proto.Entry e -> ignore (Corpus.add t.corpus e)

(* --- The resynthesize fast path --------------------------------------- *)

(* Rerun a finished job with tweaked spec targets: reuse its source (the
   compile is a cache hit), warm-start exactly one restart from its
   recorded winner (plus the winner's Hustin distribution as priors), and
   halve the restart/budget schedule unless told otherwise. Works with
   [cfg.warm] off — the explicit parent is the seed, not the corpus. *)
let resynthesize t (r : Proto.resynth) =
  let parent =
    locked t (fun () ->
        match find_job t r.Proto.rz_id with
        | None -> Error (Printf.sprintf "unknown job %d" r.Proto.rz_id)
        | Some j -> begin
            match j.state with
            | Done -> begin
                match j.outcome with
                | Some ({ jo_winner = Some _; _ } as o) when j.spec.Proto.sb_sweep = [] ->
                    Ok (j.id, j.spec, o)
                | Some { jo_winner = Some _; _ } ->
                    Error (Printf.sprintf "job %d is a sweep — resynthesize one variant's submit instead" j.id)
                | Some _ | None ->
                    Error
                      (Printf.sprintf
                         "job %d has no recorded winner (pre-corpus journal?) — submit afresh"
                         j.id)
              end
            | st ->
                Error
                  (Printf.sprintf "job %d is %s — only done jobs resynthesize" j.id
                     (state_name st))
          end)
  in
  match parent with
  | Error e -> Error e
  | Ok (parent_id, spec, o) -> begin
      let values, grid, probs = Option.get o.jo_winner in
      match
        match Netlist.Parser.parse_problem spec.Proto.sb_source with
        | ast -> Some ast
        | exception Netlist.Parser.Error _ -> None
      with
      | None -> Error (Printf.sprintf "job %d source no longer parses" parent_id)
      | Some ast -> begin
          let canon = Netlist.Canon.problem_hash ast
          and shape = Netlist.Canon.problem_shape_hash ast in
          (* Resolve each re-target's omitted bad against the parent's
             effective targets: its overrides first, the source second. *)
          let effective_bad n =
            match
              List.find_opt (fun (m, _, _) -> m = n) spec.Proto.sb_spec_overrides
            with
            | Some (_, _, bad) -> Some bad
            | None ->
                List.find_map
                  (fun (s : Netlist.Ast.spec) ->
                    if s.Netlist.Ast.spec_name = n then Some s.Netlist.Ast.bad else None)
                  ast.Netlist.Ast.specs
          in
          let unresolved, resolved =
            List.partition_map
              (fun (n, good, bad) ->
                match bad with
                | Some b -> Right (n, good, b)
                | None -> begin
                    match effective_bad n with
                    | Some b -> Right (n, good, b)
                    | None -> Left n
                  end)
              r.Proto.rz_specs
          in
          match unresolved with
          | _ :: _ ->
              Error
                (Printf.sprintf "unknown spec(s): %s" (String.concat ", " unresolved))
          | [] ->
          let entry =
            {
              Corpus.en_shape = shape;
              en_canon = canon;
              en_job = parent_id;
              en_name = spec.Proto.sb_name;
              en_cost = o.jo_best_cost;
              en_values = values;
              en_grid = grid;
              en_probs = probs;
            }
          in
          (* New targets shadow same-named parent overrides; the rest of
             the parent's overrides carry forward so the child judges the
             same problem apart from the requested tweaks. *)
          let overrides =
            List.filter
              (fun (n, _, _) ->
                not (List.exists (fun (m, _, _) -> m = n) resolved))
              spec.Proto.sb_spec_overrides
            @ resolved
          in
          let runs =
            match r.Proto.rz_runs with
            | Some n -> n
            | None -> Int.max 1 ((spec.Proto.sb_runs + 1) / 2)
          in
          let moves =
            match r.Proto.rz_moves with
            | Some m -> Some m
            | None -> Option.map (fun m -> Int.max 1 (m / 2)) spec.Proto.sb_moves
          in
          submit t
            {
              spec with
              Proto.sb_name = Printf.sprintf "%s#resynth:%d" spec.Proto.sb_name parent_id;
              sb_runs = runs;
              sb_moves = moves;
              sb_deadline_s = r.Proto.rz_deadline_s;
              sb_trace = r.Proto.rz_trace;
              sb_shard = None;
              sb_sweep = [];
              sb_warm = [ entry ];
              sb_spec_overrides = overrides;
            }
        end
    end

let shutdown t =
  let queued, domains =
    locked t (fun () ->
        if t.stopping then ([], [])
        else begin
          t.stopping <- true;
          let queued = t.queue in
          t.queue <- [];
          List.iter
            (fun (j : job) ->
              Atomic.set j.cancel (Some "shutdown");
              j.state <- Cancelled)
            queued;
          (* Trip every running job's abort hook so workers drain fast. *)
          Hashtbl.iter
            (fun _ (j : job) ->
              if j.state = Running then Atomic.set j.cancel (Some "shutdown"))
            t.jobs;
          Condition.broadcast t.nonempty;
          let d = t.domains in
          t.domains <- [];
          (queued, d)
        end)
  in
  List.iter (fun j -> finish t j ~worker:None ~state:Cancelled ()) queued;
  List.iter Domain.join domains;
  (* Workers are gone and submissions are refused: nothing appends past
     this point, so the journals can close. *)
  Corpus.close t.corpus;
  Option.iter Store.close t.journal
