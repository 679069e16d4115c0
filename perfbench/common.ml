(* Shared plumbing of the benchmark: order statistics, the in-memory span
   recorder of the traced run, and the metric table printed as the last
   line of standard output. *)

let now = Unix.gettimeofday

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- Order statistics ------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile xs q =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(Int.max 0 (Int.min (n - 1) k))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* --- Host speed ----------------------------------------------------------

   Identical runs on a shared virtual host drift by up to a third in wall
   time within a minute, and a fixed CPU loop drifts with them. The
   benchmark therefore times a fixed slice of reference work (float
   arithmetic over a 32 KB array; no code of the repository) before every
   timed operation, and reports times in reference-host seconds: wall
   seconds divided by the slowdown of the slice against its time on the
   reference host. *)

let reference_buf = Array.make 4096 1.0

(* Allocation-free, so that its time never includes garbage collection
   owed by the program under test. *)
let reference_slice () =
  let a = reference_buf in
  let acc = ref 0.0 in
  for r = 1 to 200 do
    for i = 0 to 4095 do
      let x = a.(((i * 2654435761) + r) land 4095) +. Float.sqrt (float_of_int (i + r)) in
      a.(i) <- x *. 0.5;
      acc := !acc +. x
    done
  done;
  !acc

(* Seconds one slice takes on the reference host (2-vCPU x86-64 VM). *)
let reference_slice_s = 0.003

let slice_times = ref []

(* Times one slice, keeps it for [take_slowdown] and returns the slowdown
   it shows. *)
let probe_host () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_slice ()));
  let t = now () -. t0 in
  slice_times := t :: !slice_times;
  t /. reference_slice_s

(* [rolling_median ~half xs]: each element replaced by the median of the
   up to [2 * half + 1] elements centred on it. *)
let rolling_median ~half xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  List.init n (fun i ->
      let lo = Int.max 0 (i - half) and hi = Int.min n (i + half + 1) in
      median (Array.to_list (Array.sub a lo (hi - lo))))

(* How much slower than the reference host the operations timed since the
   previous call executed (1.0 = reference speed). *)
let take_slowdown () =
  let ts = !slice_times in
  slice_times := [];
  match ts with [] -> 1.0 | ts -> median ts /. reference_slice_s

(* --- Spans ------------------------------------------------------------ *)

(* One timed call into a layer. [group] is the identifier shared by every
   span of one replayed state; [parent] is the span that was open when this
   one started (0 = none). Spans stay in memory and
   are folded into per-layer statistics once, at the end of the run. *)
type span = {
  sp_name : string;
  sp_id : int;
  sp_parent : int;
  sp_group : int;
  sp_t0 : float;
  sp_t1 : float;
  sp_words : float;  (** [Gc.minor_words] delta of the calling domain *)
}

let spans_m = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

(* Open spans per domain: client domains of the serve load record their
   own requests concurrently with each other. *)
let open_stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span ?(group = 0) name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get open_stack in
  let parent = match stack with p :: _ -> p | [] -> 0 in
  Domain.DLS.set open_stack (id :: stack);
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let close () =
    let t1 = now () in
    let words = Gc.minor_words () -. w0 in
    Domain.DLS.set open_stack stack;
    Mutex.protect spans_m (fun () ->
        spans :=
          {
            sp_name = name;
            sp_id = id;
            sp_parent = parent;
            sp_group = group;
            sp_t0 = t0;
            sp_t1 = t1;
            sp_words = words;
          }
          :: !spans)
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans_named name = List.filter (fun s -> s.sp_name = name) !spans
let duration s = s.sp_t1 -. s.sp_t0

(* --- Metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The per-call metrics of one layer span: median microseconds per call
   and mean minor-heap words per call. *)
let layer_metrics name =
  let ss = spans_named name in
  let calls = List.length ss in
  [
    metric (name ^ ".us_per_call") "us" (1e6 *. median (List.map duration ss));
    metric (name ^ ".words_per_call") "words"
      (if calls = 0 then 0.0
       else List.fold_left (fun a s -> a +. s.sp_words) 0.0 ss /. float_of_int calls);
  ]

let json_number v = Printf.sprintf "%.17g" v

(* The result line. A metric that came out non-finite (no samples) is a
   harness failure: it is printed as 0 and the run reports incorrect. *)
let print_result ~correct ~attempted ~failed metrics =
  let correct = ref correct in
  let fields =
    List.map
      (fun m ->
        let v =
          if Float.is_finite m.value then m.value
          else begin
            log "metric %s is not finite" m.name;
            correct := false;
            0.0
          end
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number v) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct attempted failed (String.concat ", " fields)
