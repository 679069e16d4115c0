module Json = Obs.Json

(* One cell of a sweep grid: the same netlist re-judged under an optional
   device corner and/or overridden good/bad spec targets. *)
type variant = {
  vr_name : string;
  vr_corner : string option;
  vr_specs : (string * float * float) list;  (* spec name, good, bad *)
}

type submit = {
  sb_name : string;
  sb_source : string;
  sb_seed : int;
  sb_moves : int option;
  sb_runs : int;
  sb_priority : int;
  sb_deadline_s : float option;
  sb_trace : bool;
  sb_shard : (int * int) option;
  sb_sweep : variant list;
      (* non-empty marks a sweep job: one synthesis per variant, sharing
         one compile per distinct (canon, corner) key; never scattered *)
  sb_warm : Corpus.entry list;
      (* the job's warm-start snapshot: restart k < |sb_warm| seeds from
         entry k. Filled by the pool at submit time (from its corpus) and
         journaled with the submit, so a replayed job re-runs from the
         same seeds regardless of what the live corpus holds by then. *)
  sb_spec_overrides : (string * float * float) list;
      (* good/bad re-targets applied to the compiled problem without
         recompiling — the resynthesize fast path's spec tweak *)
}

(* The two replicated stores and what crosses the wire for each. *)
type store = Verdicts | Winners

type record =
  | Verdict of string * string option  (* canon hash, compile error *)
  | Entry of Corpus.entry

(* The resynthesize fast path: rerun a finished job with tweaked spec
   targets, warm-started from its winner, on a reduced schedule. A spec's
   bad target is optional — omitted means "keep the parent's", which the
   pool resolves against the parent's source and overrides. *)
type resynth = {
  rz_id : int;
  rz_specs : (string * float * float option) list;
  rz_runs : int option;  (* None: half the parent's restarts *)
  rz_moves : int option;  (* None: half the parent's explicit budget *)
  rz_deadline_s : float option;
  rz_trace : bool;
}

type request =
  | Submit of submit
  | Sweep of submit  (** sb_sweep non-empty: per-variant verdict table *)
  | Resynthesize of resynth
  | Status of int
  | Result of int
  | Cancel of int
  | Stats
  | Shutdown
  | Lookup of store * string  (** store, key *)
  | Push of record
  | Ping

let num_i i = Json.Num (float_of_int i)
let opt f = function Some v -> f v | None -> Json.Null

(* ------------------------------------------------------------------ *)
(* A finished job's outcome: the fields the [result] verb serves, the    *)
(* journal's finish lines hold, and a fleet coordinator merges          *)
(* ------------------------------------------------------------------ *)

type sweep_row = {
  sv_name : string;
  sv_corner : string option;
  sv_cache : Core.Compile_cache.outcome option;  (* None: failed pre-key *)
  sv_best_cost : float option;
  sv_ok : bool option;  (* every spec at/inside its good target *)
  sv_error : string option;
  sv_predicted : (string * float option) list;
  sv_moves : int;
  sv_evals : int;
  sv_cut_reason : string option;
}

type outcome = {
  jo_best_cost : float;
  jo_moves : int;
  jo_evals : int;
  jo_cut_reason : string option;
  jo_predicted : (string * float option) list;
  jo_sizes : (string * float) list;
  jo_winner_restart : int option;
  jo_winner_score : float option;
  jo_sweep : sweep_row list;
  jo_shape : string option;
  jo_warm : string option;
  jo_winner : (float array * int array * float array) option;
}

let opt_num = opt (fun v -> Json.Num v)
let opt_str = opt (fun s -> Json.Str s)
let jstr j k = match Json.mem_opt k j with Some (Json.Str s) -> Some s | _ -> None
let jnum j k = match Json.mem_opt k j with Some (Json.Num v) -> Some v | _ -> None
let jint j k = Option.map int_of_float (jnum j k)

let cache_to_json = function
  | Some Core.Compile_cache.Hit -> Json.Str "hit"
  | Some Core.Compile_cache.Miss -> Json.Str "miss"
  | None -> Json.Null

let cache_of_json = function
  | Some (Json.Str "hit") -> Some Core.Compile_cache.Hit
  | Some (Json.Str "miss") -> Some Core.Compile_cache.Miss
  | Some _ | None -> None

let predicted_to_json ps = Json.Obj (List.map (fun (k, v) -> (k, opt_num v)) ps)

(* Decoding is lenient: a malformed member drops out rather than failing
   the whole record, as befits reading back one's own journal. *)
let pairs j k f =
  match Json.mem_opt k j with Some (Json.Obj kvs) -> List.filter_map f kvs | _ -> []

let predicted_of_json j =
  pairs j "predicted" (fun (k, v) ->
      match v with Json.Num v -> Some (k, Some v) | Json.Null -> Some (k, None) | _ -> None)

let sweep_row_to_json (r : sweep_row) =
  Json.Obj
    [
      ("variant", Json.Str r.sv_name);
      ("corner", opt_str r.sv_corner);
      ("cache", cache_to_json r.sv_cache);
      ("best_cost", opt_num r.sv_best_cost);
      ("ok", opt (fun b -> Json.Bool b) r.sv_ok);
      ("error", opt_str r.sv_error);
      ("predicted", predicted_to_json r.sv_predicted);
      ("moves", num_i r.sv_moves);
      ("evals", num_i r.sv_evals);
      ("cut_reason", opt_str r.sv_cut_reason);
    ]

let sweep_row_of_json row =
  Option.map
    (fun name ->
      {
        sv_name = name;
        sv_corner = jstr row "corner";
        sv_cache = cache_of_json (Json.mem_opt "cache" row);
        sv_best_cost = jnum row "best_cost";
        sv_ok = (match Json.mem_opt "ok" row with Some (Json.Bool b) -> Some b | _ -> None);
        sv_error = jstr row "error";
        sv_predicted = predicted_of_json row;
        sv_moves = Option.value (jint row "moves") ~default:0;
        sv_evals = Option.value (jint row "evals") ~default:0;
        sv_cut_reason = jstr row "cut_reason";
      })
    (jstr row "variant")

let farr a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Num v))

let outcome_fields o =
  [
    ("best_cost", Json.Num o.jo_best_cost);
    ("moves", num_i o.jo_moves);
    ("evals", num_i o.jo_evals);
    ("winner_restart", opt num_i o.jo_winner_restart);
    ("winner_score", opt_num o.jo_winner_score);
    ("predicted", predicted_to_json o.jo_predicted);
    ("sizes", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.jo_sizes));
  ]
  @ (match o.jo_shape with Some s -> [ ("shape", Json.Str s) ] | None -> [])
  @ (match o.jo_warm with Some w -> [ ("warm", Json.Str w) ] | None -> [])
  @ (match o.jo_winner with
    | None -> []
    | Some (values, grid, probs) ->
        [
          ("winner_values", farr values);
          ("winner_grid", farr (Array.map float_of_int grid));
          ("winner_probs", farr probs);
        ])
  @
  match o.jo_sweep with
  | [] -> []
  | rows -> [ ("sweep", Json.Arr (List.map sweep_row_to_json rows)) ]

let outcome_of_json j =
  let arr k =
    match Json.mem_opt k j with
    | Some (Json.Arr vs) ->
        Some (Array.of_list (List.filter_map (function Json.Num v -> Some v | _ -> None) vs))
    | _ -> None
  in
  Option.map
    (fun c ->
      {
        jo_best_cost = c;
        jo_moves = Option.value (jint j "moves") ~default:0;
        jo_evals = Option.value (jint j "evals") ~default:0;
        jo_cut_reason = jstr j "cut_reason";
        jo_predicted = predicted_of_json j;
        jo_sizes =
          pairs j "sizes" (fun (k, v) -> match v with Json.Num v -> Some (k, v) | _ -> None);
        jo_winner_restart = jint j "winner_restart";
        jo_winner_score = jnum j "winner_score";
        jo_sweep =
          (match Json.mem_opt "sweep" j with
          | Some (Json.Arr rows) -> List.filter_map sweep_row_of_json rows
          | _ -> []);
        jo_shape = jstr j "shape";
        jo_warm = jstr j "warm";
        jo_winner =
          (match (arr "winner_values", arr "winner_grid", arr "winner_probs") with
          | Some values, Some grid, Some probs when values <> [||] ->
              Some (values, Array.map int_of_float grid, probs)
          | _ -> None);
      })
    (jnum j "best_cost")

(* Spec re-targets cross the wire in the sweep-variant shape:
   an object mapping spec name to [good, bad]. *)
let specs_to_json specs =
  Json.Obj
    (List.map (fun (n, good, bad) -> (n, Json.Arr [ Json.Num good; Json.Num bad ])) specs)

let specs_of_json ~what = function
  | Json.Obj kvs ->
      List.map
        (fun (n, v) ->
          match v with
          | Json.Arr [ good; bad ] -> (n, Json.to_float good, Json.to_float bad)
          | _ -> raise (Json.Decode_error (what ^ ": spec override must be [good, bad]")))
        kvs
  | _ -> raise (Json.Decode_error (what ^ ": spec overrides must be an object"))

let variant_to_json (v : variant) =
  Json.Obj
    [
      ("name", Json.Str v.vr_name);
      ("corner", opt (fun c -> Json.Str c) v.vr_corner);
      ( "specs",
        Json.Obj
          (List.map
             (fun (n, good, bad) -> (n, Json.Arr [ Json.Num good; Json.Num bad ]))
             v.vr_specs) );
    ]

let variant_of_json j =
  let name =
    match Json.mem_opt "name" j with
    | Some v -> Json.to_str v
    | None -> raise (Json.Decode_error "variant: missing field \"name\"")
  in
  let corner =
    match Json.mem_opt "corner" j with
    | Some Json.Null | None -> None
    | Some v -> Some (Json.to_str v)
  in
  let specs =
    match Json.mem_opt "specs" j with
    | Some Json.Null | None -> []
    | Some v -> specs_of_json ~what:"variant" v
  in
  { vr_name = name; vr_corner = corner; vr_specs = specs }

let submit_fields (s : submit) =
  [
    ("name", Json.Str s.sb_name);
    ("source", Json.Str s.sb_source);
    ("seed", num_i s.sb_seed);
    ("moves", opt num_i s.sb_moves);
    ("runs", num_i s.sb_runs);
    ("priority", num_i s.sb_priority);
    ("deadline_s", opt (fun v -> Json.Num v) s.sb_deadline_s);
    ("trace", Json.Bool s.sb_trace);
    ("shard_lo", opt (fun (lo, _) -> num_i lo) s.sb_shard);
    ("shard_hi", opt (fun (_, hi) -> num_i hi) s.sb_shard);
  ]
  @ (match s.sb_sweep with
    | [] -> []
    | vs -> [ ("variants", Json.Arr (List.map variant_to_json vs)) ])
  @ (match s.sb_warm with
    | [] -> []
    | es -> [ ("warm", Json.Arr (List.map Corpus.entry_to_json es)) ])
  @
  match s.sb_spec_overrides with
  | [] -> []
  | specs -> [ ("spec_overrides", specs_to_json specs) ]

let store_name = function Verdicts -> "verdicts" | Winners -> "corpus"
let store_to_json s = Json.Str (store_name s)

let store_of_json = function
  | "verdicts" -> Ok Verdicts
  | "corpus" -> Ok Winners
  | s -> Error (Printf.sprintf "unknown store %S" s)

let store_of_record = function Verdict _ -> Verdicts | Entry _ -> Winners

let record_to_json = function
  | Verdict (hash, error) ->
      Json.Obj [ ("hash", Json.Str hash); ("error", opt (fun e -> Json.Str e) error) ]
  | Entry e -> Corpus.entry_to_json e

let record_of_json store j =
  match store with
  | Winners -> Result.map (fun e -> Entry e) (Corpus.entry_of_json j)
  | Verdicts -> (
      match (Json.mem_opt "hash" j, Json.mem_opt "error" j) with
      | Some (Json.Str h), (Some Json.Null | None) -> Ok (Verdict (h, None))
      | Some (Json.Str h), Some (Json.Str e) -> Ok (Verdict (h, Some e))
      | _ -> Error "verdict record: needs a string \"hash\" and a string-or-null \"error\"")

let request_to_json = function
  | Submit s -> Json.Obj (("op", Json.Str "submit") :: submit_fields s)
  | Sweep s -> Json.Obj (("op", Json.Str "sweep") :: submit_fields s)
  | Resynthesize r ->
      Json.Obj
        ([
           ("op", Json.Str "resynthesize");
           ("id", num_i r.rz_id);
           ("runs", opt num_i r.rz_runs);
           ("moves", opt num_i r.rz_moves);
           ("deadline_s", opt (fun v -> Json.Num v) r.rz_deadline_s);
           ("trace", Json.Bool r.rz_trace);
         ]
        @
        match r.rz_specs with
        | [] -> []
        | specs ->
            [
              ( "specs",
                Json.Obj
                  (List.map
                     (fun (n, good, bad) ->
                       ( n,
                         Json.Arr
                           (Json.Num good
                           :: (match bad with Some b -> [ Json.Num b ] | None -> [])) ))
                     specs) );
            ])
  | Status id -> Json.Obj [ ("op", Json.Str "status"); ("id", num_i id) ]
  | Result id -> Json.Obj [ ("op", Json.Str "result"); ("id", num_i id) ]
  | Cancel id -> Json.Obj [ ("op", Json.Str "cancel"); ("id", num_i id) ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]
  | Lookup (store, key) ->
      Json.Obj
        [ ("op", Json.Str "lookup"); ("store", store_to_json store); ("key", Json.Str key) ]
  | Push r ->
      Json.Obj
        [
          ("op", Json.Str "push");
          ("store", store_to_json (store_of_record r));
          ("record", record_to_json r);
        ]
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]

(* Decoding is lenient on optional fields (absent = default) and strict on
   shape: a wrong type surfaces as a decode error, not a crash. *)
let request_of_json j =
  let field_opt k = Json.mem_opt k j in
  let int_field k ~default =
    match field_opt k with
    | Some Json.Null | None -> default
    | Some v -> Json.to_int v
  in
  let int_opt_field k =
    match field_opt k with Some Json.Null | None -> None | Some v -> Some (Json.to_int v)
  in
  let float_opt_field k =
    match field_opt k with Some Json.Null | None -> None | Some v -> Some (Json.to_float v)
  in
  let str_field k ~default =
    match field_opt k with Some v -> Json.to_str v | None -> default
  in
  let bool_field k ~default =
    match field_opt k with Some v -> Json.to_bool v | None -> default
  in
  let store_field op =
    match field_opt "store" with
    | Some v -> store_of_json (Json.to_str v)
    | None -> Error (op ^ ": missing field \"store\"")
  in
  let id () =
    match field_opt "id" with
    | Some v -> Json.to_int v
    | None -> raise (Json.Decode_error "missing field \"id\"")
  in
  let submit_of_fields op =
    let source =
      match field_opt "source" with
      | Some v -> Json.to_str v
      | None -> raise (Json.Decode_error (op ^ ": missing field \"source\""))
    in
    let shard =
      (* Both bounds or neither: a half-specified shard is a caller bug,
         not something to guess a default for. *)
      match (int_opt_field "shard_lo", int_opt_field "shard_hi") with
      | Some lo, Some hi -> Some (lo, hi)
      | None, None -> None
      | Some _, None | None, Some _ ->
          raise (Json.Decode_error (op ^ ": shard_lo and shard_hi must come together"))
    in
    let variants =
      match field_opt "variants" with
      | Some Json.Null | None -> []
      | Some (Json.Arr vs) -> List.map variant_of_json vs
      | Some _ -> raise (Json.Decode_error (op ^ ": \"variants\" must be an array"))
    in
    let warm =
      match field_opt "warm" with
      | Some Json.Null | None -> []
      | Some (Json.Arr es) ->
          List.map
            (fun e ->
              match Corpus.entry_of_json e with
              | Ok entry -> entry
              | Error m -> raise (Json.Decode_error (op ^ ": " ^ m)))
            es
      | Some _ -> raise (Json.Decode_error (op ^ ": \"warm\" must be an array"))
    in
    let spec_overrides =
      match field_opt "spec_overrides" with
      | Some Json.Null | None -> []
      | Some v -> specs_of_json ~what:op v
    in
    {
      sb_name = str_field "name" ~default:"";
      sb_source = source;
      sb_seed = int_field "seed" ~default:1;
      sb_moves = int_opt_field "moves";
      sb_runs = int_field "runs" ~default:1;
      sb_priority = int_field "priority" ~default:0;
      sb_deadline_s = float_opt_field "deadline_s";
      sb_trace = bool_field "trace" ~default:false;
      sb_shard = shard;
      sb_sweep = variants;
      sb_warm = warm;
      sb_spec_overrides = spec_overrides;
    }
  in
  match Json.to_str (Json.mem "op" j) with
  | "submit" -> Ok (Submit (submit_of_fields "submit"))
  | "sweep" ->
      let s = submit_of_fields "sweep" in
      if s.sb_sweep = [] then Error "sweep: at least one variant required" else Ok (Sweep s)
  | "resynthesize" ->
      let specs =
        match field_opt "specs" with
        | Some Json.Null | None -> []
        | Some (Json.Obj kvs) ->
            List.map
              (fun (n, v) ->
                match v with
                | Json.Arr [ good ] -> (n, Json.to_float good, None)
                | Json.Arr [ good; bad ] ->
                    (n, Json.to_float good, Some (Json.to_float bad))
                | _ ->
                    raise
                      (Json.Decode_error
                         "resynthesize: spec re-target must be [good] or [good, bad]"))
              kvs
        | Some _ -> raise (Json.Decode_error "resynthesize: \"specs\" must be an object")
      in
      Ok
        (Resynthesize
           {
             rz_id = id ();
             rz_specs = specs;
             rz_runs = int_opt_field "runs";
             rz_moves = int_opt_field "moves";
             rz_deadline_s = float_opt_field "deadline_s";
             rz_trace = bool_field "trace" ~default:false;
           })
  | "status" -> Ok (Status (id ()))
  | "result" -> Ok (Result (id ()))
  | "cancel" -> Ok (Cancel (id ()))
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "lookup" ->
      let key =
        match field_opt "key" with
        | Some v -> Json.to_str v
        | None -> raise (Json.Decode_error "lookup: missing field \"key\"")
      in
      Result.map (fun store -> Lookup (store, key)) (store_field "lookup")
  | "push" -> begin
      match (store_field "push", field_opt "record") with
      | Error e, _ -> Error e
      | Ok _, None -> Error "push: missing field \"record\""
      | Ok store, Some r -> Result.map (fun r -> Push r) (record_of_json store r)
    end
  | "ping" -> Ok Ping
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* Field accessors raise [Decode_error] on shape mismatches anywhere in the
   request; fold those into the result. *)
let request_of_json j =
  match request_of_json j with r -> r | exception Json.Decode_error e -> Error e

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let busy_message cap =
  Printf.sprintf "daemon at connection capacity (%d) — retry shortly" cap

(* ------------------------------------------------------------------ *)
(* Line transport over raw descriptors                                 *)
(* ------------------------------------------------------------------ *)

(* Both ends speak newline-delimited JSON over a Unix fd. Raw [Unix.read]/
   [Unix.write] rather than channels, so an [SO_RCVTIMEO]/[SO_SNDTIMEO]
   expiry surfaces deterministically as [Unix_error (EAGAIN, _, _)] — the
   server turns it into an idle-timeout disconnect, the client into a
   "daemon did not respond" report instead of a misattributed connect
   failure. *)

let write_line fd j =
  let s = Json.to_string j ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

type line_reader = { lr_fd : Unix.file_descr; lr_buf : Buffer.t; lr_chunk : Bytes.t }

let line_reader fd = { lr_fd = fd; lr_buf = Buffer.create 512; lr_chunk = Bytes.create 4096 }

(* [read_line r] returns the next newline-terminated line (newline
   stripped), or [None] at EOF. A final unterminated line is returned as
   is. Unix errors (including EAGAIN on timeout) propagate to the caller. *)
let read_line r =
  let take_upto pos =
    let all = Buffer.contents r.lr_buf in
    let line = String.sub all 0 pos in
    Buffer.clear r.lr_buf;
    Buffer.add_substring r.lr_buf all (pos + 1) (String.length all - pos - 1);
    line
  in
  let rec go () =
    match String.index_opt (Buffer.contents r.lr_buf) '\n' with
    | Some pos -> Some (take_upto pos)
    | None -> begin
        match Unix.read r.lr_fd r.lr_chunk 0 (Bytes.length r.lr_chunk) with
        | 0 ->
            if Buffer.length r.lr_buf = 0 then None
            else begin
              let line = Buffer.contents r.lr_buf in
              Buffer.clear r.lr_buf;
              Some line
            end
        | n ->
            Buffer.add_subbytes r.lr_buf r.lr_chunk 0 n;
            go ()
      end
  in
  go ()

let response_error j =
  match Json.mem_opt "ok" j with
  | Some (Json.Bool true) -> None
  | Some (Json.Bool false) -> begin
      match Json.mem_opt "error" j with
      | Some (Json.Str e) -> Some e
      | Some _ | None -> Some "request failed"
    end
  | Some _ | None -> Some "malformed response (no \"ok\" field)"

(* ------------------------------------------------------------------ *)
(* Authentication                                                      *)
(* ------------------------------------------------------------------ *)

(* When a daemon listens on TCP it is configured with a shared secret, and
   the first line of every connection (on either listener) must be
   [{"auth":TOKEN}]. A correct token gets no response — the client
   pipelines the auth line and the request and reads one response line. A
   wrong or missing token gets exactly one [ok:false] line and a close. *)

let auth_to_json token = Json.Obj [ ("auth", Json.Str token) ]

let auth_of_json j =
  match Json.mem_opt "auth" j with Some (Json.Str t) -> Some t | Some _ | None -> None

let auth_failed_message = "authentication failed"

(* Constant-time comparison over equal lengths: the timing of a token
   check must not leak how long a matching prefix was. (Length itself is
   not secret.) *)
let token_equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end
