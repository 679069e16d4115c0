module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  peers : string list;
  auth : string option;
  steal_timeout_s : float;
  rpc_timeout_s : float;
}

let default_config = { peers = []; auth = None; steal_timeout_s = 60.0; rpc_timeout_s = 5.0 }

(* Replication traffic of one store. *)
type counters = {
  mutable lookups : int;  (** outbound lookup RPCs *)
  mutable hits : int;  (** outbound lookups a peer answered *)
  mutable pushes : int;  (** records a peer accepted *)
  mutable push_failures : int;
  mutable inbound_pushes : int;  (** push verbs served *)
  mutable served_lookups : int;  (** lookup verbs served *)
}

let zero () =
  { lookups = 0; hits = 0; pushes = 0; push_failures = 0; inbound_pushes = 0; served_lookups = 0 }

type t = {
  mutex : Mutex.t;
  mutable peers : string list;
  auth : string option;
  steal_timeout_s : float;
  rpc_timeout_s : float;
  verdicts : counters;
  winners : counters;
  mutable scatters : int;
  mutable remote_shards : int;  (** shards a peer completed for us *)
  mutable steals : int;  (** shards re-run locally after a peer failed *)
}

let create (cfg : config) =
  if cfg.steal_timeout_s <= 0.0 then invalid_arg "Fleet.create: steal_timeout_s must be > 0";
  {
    mutex = Mutex.create ();
    peers = cfg.peers;
    auth = cfg.auth;
    steal_timeout_s = cfg.steal_timeout_s;
    rpc_timeout_s = cfg.rpc_timeout_s;
    verdicts = zero ();
    winners = zero ();
    scatters = 0;
    remote_shards = 0;
    steals = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let peers t = locked t (fun () -> t.peers)
let set_peers t peers = locked t (fun () -> t.peers <- peers)
let auth t = t.auth

(* ------------------------------------------------------------------ *)
(* Replication: one lookup/push fan-out for both stores                 *)
(* ------------------------------------------------------------------ *)

let counters_of t = function Proto.Verdicts -> t.verdicts | Proto.Winners -> t.winners
let count t store f = locked t (fun () -> f (counters_of t store))

(* Each peer in order, one bounded RPC each, until one knows the key. A
   peer answers only from its own store, so lookups never recurse. *)
let lookup t store ~key =
  let rec ask = function
    | [] -> []
    | peer :: rest -> begin
        count t store (fun c -> c.lookups <- c.lookups + 1);
        match Client.lookup ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s store key with
        | Ok (_ :: _ as records) ->
            count t store (fun c -> c.hits <- c.hits + 1);
            records
        | Ok [] | Error _ -> ask rest
      end
  in
  ask (peers t)

(* Best-effort: a dead peer costs one timed-out RPC and a counter, never a
   failed job. Receivers do not pass pushes on — each daemon tells every
   peer directly, which is enough for a full mesh without echo. *)
let push t record =
  let store = Proto.store_of_record record in
  List.iter
    (fun peer ->
      match Client.push ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s record with
      | Ok () -> count t store (fun c -> c.pushes <- c.pushes + 1)
      | Error _ -> count t store (fun c -> c.push_failures <- c.push_failures + 1))
    (peers t)

let record_served_lookup t store = count t store (fun c -> c.served_lookups <- c.served_lookups + 1)
let record_inbound_push t store = count t store (fun c -> c.inbound_pushes <- c.inbound_pushes + 1)

(* ------------------------------------------------------------------ *)
(* Scatter / steal / merge                                             *)
(* ------------------------------------------------------------------ *)

type shard_result = {
  sr_lo : int;
  sr_hi : int;
  sr_peer : string option;
  sr_stolen : bool;
  sr_outcome : Proto.outcome;  (** always carries winner_restart/score *)
}

(* Contiguous ascending shards covering [0, runs); the first [runs mod
   parts] shards take the remainder. Never more shards than runs. *)
let split_shards ~runs ~parts =
  let parts = Int.max 1 (Int.min parts runs) in
  let base = runs / parts and rem = runs mod parts in
  let rec go i lo acc =
    if i >= parts then List.rev acc
    else begin
      let len = base + if i < rem then 1 else 0 in
      go (i + 1) (lo + len) ((lo, lo + len) :: acc)
    end
  in
  go 0 0 []

(* A peer's finished shard job back into a shard result. The floats made
   the round trip through %.17g JSON, so best_cost and winner_score are
   the exact bits the peer computed — the merge below stays bit-identical
   to a local fold. Anything other than a clean "done" record is a steal
   trigger, not a partial answer. *)
let shard_result_of_job ~lo ~hi ~peer job =
  match (Json.mem_opt "state" job, Proto.outcome_of_json job) with
  | ( Some (Json.Str "done"),
      Some ({ Proto.jo_winner_restart = Some _; jo_winner_score = Some _; _ } as o) ) ->
      Ok { sr_lo = lo; sr_hi = hi; sr_peer = Some peer; sr_stolen = false; sr_outcome = o }
  | Some (Json.Str "done"), _ ->
      Error (Printf.sprintf "peer %s: shard record lacks winner fields" peer)
  | Some (Json.Str state), _ -> Error (Printf.sprintf "peer %s: shard finished %s" peer state)
  | _ -> Error (Printf.sprintf "peer %s: shard record lacks state" peer)

let run_remote t ~submit ~peer ~lo ~hi =
  let sub =
    {
      submit with
      Proto.sb_shard = Some (lo, hi);
      (* Shard jobs keep their own rings off: the coordinator's record is
         the job of record; a shard's trace would only tell a shard story. *)
      sb_trace = false;
      sb_name =
        (let base = submit.Proto.sb_name in
         Printf.sprintf "%s#shard[%d,%d)" (if base = "" then "job" else base) lo hi);
    }
  in
  match Client.submit ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s sub with
  | Error e -> Error e
  | Ok id -> begin
      match
        Client.wait ~socket:peer ?auth:t.auth ~poll_s:0.05 ~timeout_s:t.steal_timeout_s id
      with
      | Error e -> Error e
      | Ok job -> shard_result_of_job ~lo ~hi ~peer job
    end

(* Scatter [submit]'s restart budget over self + peers, steal failed or
   slow shards back (re-running them locally through [run_local]), and
   return every shard's result in ascending [sr_lo] order. Because restart
   [k] of a shard is restart [k] of the unsharded run (Oblx's [restarts]
   contract) and each shard reports its winner's {!Oblx.score}, a
   left-biased strict-< fold over this list in order reproduces the
   winner one big box would pick, byte for byte — wherever each shard
   actually ran, steals included. *)
let scatter t ~(submit : Proto.submit) ~run_local =
  let ps = peers t in
  locked t (fun () -> t.scatters <- t.scatters + 1);
  let shards = split_shards ~runs:submit.Proto.sb_runs ~parts:(1 + List.length ps) in
  match shards with
  | [] -> Error "no shards" (* unreachable: runs >= 1 *)
  | local :: remote ->
      let remote =
        List.mapi (fun i (lo, hi) -> (i + 1, List.nth ps i, lo, hi)) remote
      in
      let n = 1 + List.length remote in
      let results = Array.make n (Error "shard never ran") in
      let steal ~lo ~hi reason =
        locked t (fun () -> t.steals <- t.steals + 1);
        match run_local ~lo ~hi with
        | Ok sr -> Ok { sr with sr_stolen = true }
        | Error e ->
            Error (Printf.sprintf "shard [%d,%d): peer failed (%s), steal failed (%s)" lo hi reason e)
      in
      let threads =
        List.map
          (fun (idx, peer, lo, hi) ->
            Thread.create
              (fun () ->
                results.(idx) <-
                  (match run_remote t ~submit ~peer ~lo ~hi with
                  | Ok sr ->
                      locked t (fun () -> t.remote_shards <- t.remote_shards + 1);
                      Ok sr
                  | Error reason -> steal ~lo ~hi reason))
              ())
          remote
      in
      (let lo, hi = local in
       results.(0) <- run_local ~lo ~hi);
      List.iter Thread.join threads;
      let rec collect i acc =
        if i < 0 then Ok acc
        else begin
          match results.(i) with
          | Ok sr -> collect (i - 1) (sr :: acc)
          | Error e -> Error e
        end
      in
      (* Slot order is shard order is ascending lo. *)
      collect (n - 1) []

(* The winner rule of [Oblx.best_of], lifted to shards: strict < keeps the
   earliest shard on ties, and within a shard the daemon that ran it
   already kept the earliest restart. *)
let merge shards =
  let score sr = Option.value sr.sr_outcome.Proto.jo_winner_score ~default:Float.infinity in
  match shards with
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun best sr -> if score sr < score best then sr else best) first rest)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let num_i i = Json.Num (float_of_int i)

let counters_json c =
  Json.Obj
    [
      ("lookups", num_i c.lookups);
      ("hits", num_i c.hits);
      ("pushes", num_i c.pushes);
      ("push_failures", num_i c.push_failures);
      ("inbound_pushes", num_i c.inbound_pushes);
      ("served_lookups", num_i c.served_lookups);
    ]

let stats_json t =
  locked t (fun () ->
      Json.Obj
        [
          ("peers", Json.Arr (List.map (fun p -> Json.Str p) t.peers));
          ("scatters", num_i t.scatters);
          ("remote_shards", num_i t.remote_shards);
          ("steals", num_i t.steals);
          (Proto.store_name Proto.Verdicts, counters_json t.verdicts);
          (Proto.store_name Proto.Winners, counters_json t.winners);
        ])

let remote_hits t = locked t (fun () -> t.verdicts.hits)
