(* The system under test as processes: [serve] / [route] daemons started
   from the built [nbti_tool] with a clean environment, in the run's
   scratch directory, and newline-delimited JSON connections to them. *)

let tool = ref "nbti_tool.exe"

(* Variables that would make the daemon measure something other than
   its defaults: a pinned pool size, a disabled incremental core, or an
   armed fault plan. *)
let scrubbed = [ "NBTI_JOBS"; "NBTI_INCREMENTAL"; "NBTI_FAULTS" ]

let clean_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) scrubbed))
       (Array.to_list (Unix.environment ())))

let live = ref []

let spawn ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () ->
        Unix.create_process_env !tool (Array.of_list (!tool :: args)) (clean_env ()) null out out)
  in
  live := pid :: !live;
  pid

(* SIGINT stops a daemon immediately; a daemon that has not exited
   within ten seconds is killed. Either way it is reaped. *)
let stop pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun p -> p <> pid) !live

let stop_all () = List.iter stop !live

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    (* a wedged daemon fails the run instead of hanging it *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let op name = Printf.sprintf {|{"v":1,"op":"%s"}|} name
let stats c = Util.result_of (call c (op "stats"))

(* Polls the socket until the daemon answers [health] and [ready] holds
   on the health result. *)
let wait_ready ?(ready = fun _ -> true) ~pid path =
  let deadline = Util.now () +. 60.0 in
  let rec go () =
    if Util.now () > deadline then failwith ("daemon not ready: " ^ path);
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith ("daemon exited during start-up: " ^ path));
    match connect path with
    | c ->
      let ok =
        Fun.protect
          ~finally:(fun () -> close c)
          (fun () ->
            match Util.result_of (call c (op "health")) with
            | r -> ready r
            | exception _ -> false)
      in
      if not ok then begin
        Unix.sleepf 0.005;
        go ()
      end
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.005;
      go ()
  in
  go ()

type daemon = { pid : int; sock : string }

let serve ?(trace = false) name =
  let sock = name ^ ".sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let args = [ "serve"; "-s"; sock ] @ if trace then [ "--trace-spans"; "200000" ] else [] in
  let pid = spawn ~log:(name ^ ".log") args in
  wait_ready ~pid sock;
  { pid; sock }

let route ?(trace = false) name backends =
  let sock = name ^ ".sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ "route"; "-s"; sock ]
    @ List.concat_map (fun b -> [ "-b"; b.sock ]) backends
    @ if trace then [ "--trace-spans"; "200000" ] else []
  in
  let pid = spawn ~log:(name ^ ".log") args in
  let n = List.length backends in
  wait_ready ~pid sock ~ready:(fun r ->
      Util.Json.to_int (Util.Json.member "backends_live" r) = n);
  { pid; sock }

(* The ring the router builds over these backends, to find the owner of
   a request without asking the router. *)
let ring backends =
  Fleet.Ring.create
    ~vnodes:Fleet.Router.default_config.Fleet.Router.vnodes
    (List.map (fun b -> Server.Netline.endpoint_to_string (Server.Netline.Unix_socket b.sock)) backends)
