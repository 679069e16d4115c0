module Json = Obs.Json

type t = {
  path : string;
  mutex : Mutex.t;
  mutable oc : out_channel option;  (** append mode; [None] once closed *)
  mutable lines : int;
  mutable bytes : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let open_append path =
  try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path) with Sys_error _ -> None

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let ends_with_newline path =
  match open_in_bin path with
  | exception Sys_error _ -> true
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          n = 0
          ||
          (seek_in ic (n - 1);
           input_char ic = '\n'))

let open_ path ~replay =
  let lines = ref 0 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      (try
         while true do
           match Json.of_string (input_line ic) with
           | Ok j ->
               incr lines;
               replay j
           | Error _ -> () (* a torn or garbled line: skip it *)
         done
       with End_of_file -> ());
      close_in ic);
  let oc = open_append path in
  (* A torn tail has no newline; terminate it, or the first append would
     be glued onto it and lost with it at the next replay. *)
  (match oc with
  | Some oc when not (ends_with_newline path) -> (
      try
        output_char oc '\n';
        flush oc
      with Sys_error _ -> ())
  | Some _ | None -> ());
  { path; mutex = Mutex.create (); oc; lines = !lines; bytes = file_size path }

let write_line oc j =
  let line = Json.to_string j in
  output_string oc line;
  output_char oc '\n';
  String.length line + 1

let append t j =
  locked t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc -> (
          try
            let n = write_line oc j in
            flush oc;
            t.lines <- t.lines + 1;
            t.bytes <- t.bytes + n
          with Sys_error _ -> ()))

(* A kill -9 at any point leaves either the old complete journal (plus a
   harmless .tmp) or the new complete one — never a torn journal. *)
let compact t records =
  locked t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc -> begin
          let tmp = t.path ^ ".tmp" in
          match open_out tmp with
          | exception Sys_error _ -> ()
          | tmp_oc -> (
              try
                List.iter (fun j -> ignore (write_line tmp_oc j)) records;
                close_out tmp_oc;
                Sys.rename tmp t.path;
                (try close_out oc with Sys_error _ -> ());
                t.oc <- open_append t.path;
                t.lines <- List.length records;
                t.bytes <- file_size t.path
              with Sys_error _ -> ( try close_out tmp_oc with Sys_error _ -> ()))
        end)

let lines t = locked t (fun () -> t.lines)
let bytes t = locked t (fun () -> t.bytes)

let close t =
  locked t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          t.oc <- None;
          (try close_out oc with Sys_error _ -> ()))
