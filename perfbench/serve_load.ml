(* The oblxd load: an in-process daemon ([Serve.Server.run] on a Unix
   socket, one pool worker, a journal and winner corpus in a temporary
   state directory) driven by client domains in a closed loop. Each client
   submits a cold small-budget job, waits for it, resynthesizes it with
   every spec target tightened by 5% (a warm start from the recorded
   winner), waits again, then reads [stats]. Afterwards the daemon is shut
   down and rebooted on the same state directory to time journal replay
   and check that every job id still answers [result]. *)

open Common

type config = {
  circuits : Synth.circuit list;  (** cold jobs alternate over these *)
  clients : int;
  loops : int;  (** cold + resynth rounds per client *)
  force_error : bool;  (** self-test: one request for an unknown job id *)
}

type job = {
  j_circuit : Synth.circuit;
  j_cold : bool;  (** a fresh submit, not a resynthesize *)
  j_seed : int;
  j_latency_s : float;  (** client-observed, submit to result in hand *)
  j_record : Obs.Json.t option;  (** the finished job record, if any *)
}

type outcome = {
  jobs : job list;
  attempts : int;  (** client calls made *)
  errors : int;  (** calls that returned [Error] plus jobs not ending [done] *)
  load_wall_s : float;
  stats : Obs.Json.t option;  (** daemon [stats] at the end of the load *)
  journal_bytes : int;
  corpus_bytes : int;
  replay_s : float;  (** reboot on the same state directory to ready *)
  lost_ids : int list;  (** pre-reboot ids that no longer answer [result] *)
  boot_s : float list;  (** boot-to-ready times of the fresh set-up boots *)
  boot_slowdown : float;  (** host slowdown while booting *)
  load_slowdown : float;  (** host slowdown during the load *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Boot a daemon and return it with its boot-to-ready time. *)
let boot ~socket ~state_dir =
  let cfg =
    {
      Serve.Server.socket_path = socket;
      tcp = None;
      auth_token = None;
      max_connections = Serve.Server.default_max_connections;
      idle_timeout_s = Serve.Server.default_idle_timeout_s;
      pool =
        {
          Serve.Pool.default_config with
          workers = 1;
          queue_capacity = 256;
          state_dir = Some state_dir;
        };
    }
  in
  let m = Mutex.create () and c = Condition.create () in
  let ready = ref false and failure = ref None in
  let signal f = Mutex.protect m (fun () -> f (); ready := true; Condition.signal c) in
  let t0 = now () in
  let d =
    Domain.spawn (fun () ->
        try Serve.Server.run ~ready:(fun () -> signal ignore) cfg
        with e -> signal (fun () -> failure := Some e))
  in
  Mutex.protect m (fun () -> while not !ready do Condition.wait c m done);
  let t = now () -. t0 in
  match !failure with
  | Some e ->
      Domain.join d;
      raise e
  | None -> (d, t)

let stop ~socket d =
  ignore (Serve.Client.shutdown ~socket ());
  Domain.join d

let jstr k j = match Obs.Json.mem_opt k j with Some (Obs.Json.Str s) -> Some s | _ -> None
let jnum k j = match Obs.Json.mem_opt k j with Some (Obs.Json.Num v) -> Some v | _ -> None

(* Every spec's good target moved 5% of its good-bad span away from bad. *)
let retarget (p : Core.Problem.t) =
  List.filter_map
    (fun (s : Core.Problem.spec) ->
      if s.spec_corner <> None then None
      else Some (s.spec_name, s.good +. (0.05 *. (s.good -. s.bad)), None))
    p.specs

let submit_of (c : Synth.circuit) seed =
  {
    Serve.Proto.sb_name = c.Synth.c_name;
    sb_source = Synth.source c;
    sb_seed = seed;
    sb_moves = Some c.Synth.c_moves;
    sb_runs = 1;
    sb_priority = 0;
    sb_deadline_s = None;
    sb_trace = false;
    sb_shard = None;
    sb_sweep = [];
    sb_warm = [];
    sb_spec_overrides = [];
  }

let run ~dir ~seed ~boots cfg =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "oblxd.sock" in
  let state_dir = Filename.concat dir "state" in
  (* Set-up: fresh boots on empty state, each shut down again. *)
  let boot_s =
    List.init boots (fun _ ->
        rm_rf state_dir;
        ignore (probe_host ());
        let d, t = boot ~socket ~state_dir in
        stop ~socket d;
        t)
  in
  let boot_slowdown = take_slowdown () in
  rm_rf state_dir;
  let d, _ = boot ~socket ~state_dir in
  let problems = List.map (fun c -> (c.Synth.c_name, Synth.compile c)) cfg.circuits in
  let seeds = Array.of_list (Synth.seeds ~seed (cfg.clients * cfg.loops)) in
  let ncirc = List.length cfg.circuits in
  let attempts = Atomic.make 0 and errors = Atomic.make 0 in
  let call name f =
    Atomic.incr attempts;
    match span name f with
    | Ok v -> Some v
    | Error e ->
        log "serve: %s failed: %s" name e;
        Atomic.incr errors;
        None
  in
  (* [Client.wait]'s loop (a status poll every 50 ms), with each poll
     timed. *)
  let wait id =
    let rec go () =
      match call "serve.client.status_ms" (fun () -> Serve.Client.status ~socket id) with
      | None -> None
      | Some st -> (
          match jstr "state" st with
          | Some ("queued" | "running") ->
              Unix.sleepf 0.05;
              go ()
          | Some _ -> call "serve.client.result_ms" (fun () -> Serve.Client.result ~socket id)
          | None -> None)
    in
    go ()
  in
  let finished (rec_ : Obs.Json.t option) =
    match rec_ with
    | Some j when jstr "state" j = Some "done" -> rec_
    | Some _ ->
        Atomic.incr errors;
        None
    | None -> None
  in
  let client ci ks =
    let jobs = ref [] in
    List.iter (fun k ->
      let c = List.nth cfg.circuits ((ci + k) mod ncirc) in
      let seed = seeds.((ci * cfg.loops) + k) in
      let t0 = now () in
      let cold =
        Option.bind
          (call "serve.client.submit_ms" (fun () -> Serve.Client.submit ~socket (submit_of c seed)))
          wait
        |> finished
      in
      jobs :=
        { j_circuit = c; j_cold = true; j_seed = seed; j_latency_s = now () -. t0; j_record = cold }
        :: !jobs;
      (match Option.bind cold (jnum "id") with
      | Some id ->
          let t1 = now () in
          let r =
            {
              Serve.Proto.rz_id = int_of_float id;
              rz_specs = retarget (List.assoc c.Synth.c_name problems);
              rz_runs = None;
              rz_moves = None;
              rz_deadline_s = None;
              rz_trace = false;
            }
          in
          let warm =
            Option.bind
              (call "serve.client.resynthesize_ms" (fun () ->
                   Serve.Client.resynthesize ~socket r))
              wait
            |> finished
          in
          jobs :=
            {
              j_circuit = c;
              j_cold = false;
              j_seed = seed;
              j_latency_s = now () -. t1;
              j_record = warm;
            }
            :: !jobs
      | None -> ());
      if cfg.force_error && ci = 0 && k = 0 then
        ignore (call "serve.client.status_ms" (fun () -> Serve.Client.status ~socket 999_999_999));
      ignore (call "serve.client.stats_ms" (fun () -> Serve.Client.stats ~socket ())))
      ks;
    List.rev !jobs
  in
  (* The load runs in rounds of [round_loops] loops per client. Between
     rounds every job has finished, so the host probes run on an idle
     daemon and never time the system's own contention; a full major
     collection there keeps the heap peak a property of one round's load
     rather than of when the collector's pacing happened to fall. *)
  let round_loops = 5 in
  let load_wall_s = ref 0.0 in
  let jobs =
    List.concat_map
      (fun r ->
        Gc.full_major ();
        for _ = 1 to 3 do ignore (probe_host ()) done;
        let ks =
          List.filter (fun k -> k < cfg.loops) (List.init round_loops (fun i -> (r * round_loops) + i))
        in
        let t0 = now () in
        let doms = List.init cfg.clients (fun ci -> Domain.spawn (fun () -> client ci ks)) in
        let js = List.concat_map Domain.join doms in
        load_wall_s := !load_wall_s +. (now () -. t0);
        js)
      (List.init ((cfg.loops + round_loops - 1) / round_loops) Fun.id)
  in
  let load_wall_s = !load_wall_s in
  let load_slowdown = take_slowdown () in
  let stats = Result.to_option (Serve.Client.stats ~socket ()) in
  stop ~socket d;
  let journal_bytes = file_size (Filename.concat state_dir "jobs.log") in
  let corpus_bytes = file_size (Filename.concat state_dir "corpus.log") in
  let d, replay_s = boot ~socket ~state_dir in
  let ids = List.filter_map (fun j -> Option.bind j.j_record (jnum "id")) jobs in
  let lost_ids =
    List.filter_map
      (fun id ->
        match Serve.Client.result ~socket (int_of_float id) with
        | Ok _ -> None
        | Error _ -> Some (int_of_float id))
      ids
  in
  stop ~socket d;
  rm_rf dir;
  {
    jobs;
    attempts = Atomic.get attempts;
    errors = Atomic.get errors;
    load_wall_s;
    stats;
    journal_bytes;
    corpus_bytes;
    replay_s;
    lost_ids;
    boot_s;
    boot_slowdown;
    load_slowdown;
  }

(* The first served cold job must bit-equal a local [best_of] with the same
   seed and budget. Returns the failure, if any, and the local result. *)
let check_determinism o =
  match List.find_opt (fun j -> j.j_cold && j.j_record <> None) o.jobs with
  | None -> (Some "no served cold job finished", None)
  | Some j ->
      let p = Synth.compile j.j_circuit in
      let local, _ =
        Core.Oblx.best_of ~seed:j.j_seed ~moves:j.j_circuit.Synth.c_moves ~jobs:1 ~runs:1 p
      in
      let served = Option.bind j.j_record (jnum "best_cost") in
      if served = Some local.Core.Oblx.best_cost then (None, Some (p, local))
      else
        ( Some
            (Printf.sprintf "served %s seed %d best cost %s differs from local %.17g"
               j.j_circuit.Synth.c_name j.j_seed
               (match served with Some v -> Printf.sprintf "%.17g" v | None -> "none")
               local.Core.Oblx.best_cost),
          Some (p, local) )

let latencies o = List.map (fun j -> j.j_latency_s) o.jobs
let done_jobs o = List.filter (fun j -> j.j_record <> None) o.jobs

let metrics o =
  let n_jobs = List.length o.jobs in
  let stat path =
    List.fold_left
      (fun acc k -> Option.bind acc (Obs.Json.mem_opt k))
      o.stats path
  in
  let snum path = match stat path with Some (Obs.Json.Num v) -> v | _ -> 0.0 in
  let rec_ms k =
    List.filter_map
      (fun j -> Option.map (fun v -> 1000.0 *. v) (Option.bind j.j_record (jnum k)))
      o.jobs
  in
  let per_job v = if n_jobs = 0 then 0.0 else v /. float_of_int n_jobs in
  List.map
    (fun n -> metric n "ms" (1000.0 *. median (List.map duration (spans_named n))))
    [
      "serve.client.submit_ms";
      "serve.client.status_ms";
      "serve.client.resynthesize_ms";
      "serve.client.stats_ms";
    ]
  @ [
      metric "serve.pool.queue_wait_ms" "ms" (median (rec_ms "wait_s"));
      metric "serve.pool.run_ms" "ms" (median (rec_ms "run_s"));
      metric "serve.compile_cache.hit_ratio" "ratio"
        (let h = snum [ "cache"; "hits" ] and m = snum [ "cache"; "misses" ] in
         if h +. m > 0.0 then h /. (h +. m) else 0.0);
      metric "serve.corpus.lookups" "count" (snum [ "corpus"; "lookups" ]);
      metric "serve.server.connections_per_job" "count" (per_job (snum [ "connections"; "total" ]));
      metric "serve.journal.bytes_per_job" "bytes" (per_job (float_of_int o.journal_bytes));
      metric "serve.corpus.bytes_per_job" "bytes" (per_job (float_of_int o.corpus_bytes));
      metric "serve.journal.replay_s" "s" o.replay_s;
      metric "serve.jobs" "count" (float_of_int n_jobs);
      metric "job_latency_p50_s" "s" (median (latencies o));
      metric "job_latency_p90_s" "s" (percentile (latencies o) 0.9);
      metric "request_fail_frac" "ratio" (ratio o.errors o.attempts);
    ]
