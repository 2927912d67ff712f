(* agingbench: the repo's benchmark. Usage:

     agingbench --workload NAME --seed N --seconds S --trace 0|1

   Run from the repo root after building; see README.md. The last line
   of standard output is one JSON object: correct, attempted, failed
   and the metrics (end-to-end ones with --trace 0, per-layer ones with
   --trace 1). *)

module Json = Util.Json
open Report

let workloads = [ "repeat_named"; "design_sweep"; "mc_sampling"; "routed_upload" ]
let setups_per_run = 5

let served_e2e (spec : Served.spec) ~seconds =
  (* Several set-ups, each timed from process start to the end of the
     warm pass; the last one serves the measured window. *)
  let setups = ref [] and sut = ref None in
  for i = 1 to setups_per_run do
    let s, dt = Served.setup spec in
    setups := dt :: !setups;
    if i < setups_per_run then Served.stop s else sut := Some s
  done;
  let sut = Option.get !sut in
  let pids = List.map (fun d -> d.Sut.pid) sut.Served.procs in
  let cpu () = Util.sum (List.map Util.cpu_s pids) in
  let pool_domains = Served.pool_domains sut in
  let c0 = cpu () in
  let w, steal_pct = Util.stolen (fun () -> Served.drive spec sut ~seconds) in
  let cpu_s = cpu () -. c0 in
  let rss_mb = Util.sum (List.map (fun p -> Util.peak_rss_mb (string_of_int p)) pids) in
  Served.stop sut;
  host ~pool_domains ~steal_pct;
  let pairs = List.map (fun s -> (s.Served.req, s.Served.resp)) w.Served.samples in
  let verdicts, problems = spec.Served.check pairs in
  let failed, correct = tally ~workload:spec.Served.name verdicts problems in
  let ops = List.length pairs in
  Printf.eprintf "agingbench: %s: %d rounds, %d ops in %.2f s\n%!" spec.Served.name w.Served.rounds ops
    w.Served.window_s;
  {
    correct;
    attempted = ops;
    failed;
    metrics =
      e2e_metrics ~ops ~window_s:w.Served.window_s
        ~lats:(List.map (fun s -> s.Served.lat_s) w.Served.samples)
        ~tail:spec.Served.tail ~cpu_s ~rss_mb ~setups:!setups;
  }

let mc_e2e ~seed ~seconds =
  let setups = ref [] and ctx = ref None in
  for i = 1 to setups_per_run do
    let c, dt = Mc.setup () in
    setups := dt :: !setups;
    if i < setups_per_run then Parallel.Pool.shutdown c.Mc.pool else ctx := Some c
  done;
  let ctx = Option.get !ctx in
  let c0 = Util.self_cpu_s () in
  let w, steal_pct = Util.stolen (fun () -> Mc.drive ctx ~seed ~seconds) in
  let cpu_s = Util.self_cpu_s () -. c0 in
  let rss_mb = Util.peak_rss_mb "self" in
  host ~pool_domains:(Parallel.Pool.domains ctx.Mc.pool) ~steal_pct;
  let verdicts, problems = Mc.check ctx w in
  let failed, correct = tally ~workload:"mc_sampling" verdicts problems in
  let ops = List.length w.Mc.answers in
  Printf.eprintf "agingbench: mc_sampling: %d rounds, %d ops in %.2f s\n%!" w.Mc.rounds ops w.Mc.window_s;
  {
    correct;
    attempted = ops;
    failed;
    metrics =
      e2e_metrics ~ops ~window_s:w.Mc.window_s ~lats:(List.map snd w.Mc.answers) ~tail:Mc.tail ~cpu_s
        ~rss_mb ~setups:!setups;
  }

let usage () =
  prerr_endline
    "usage: agingbench --workload (repeat_named|design_sweep|mc_sampling|routed_upload) --seed N \
     --seconds S --trace 0|1";
  exit 2

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then usage ();
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "agingbench: unset %s: the benchmark measures the program's defaults\n" v;
        exit 2
      end)
    Sut.scrubbed;
  let root = Sys.getcwd () in
  Sut.tool := Filename.concat root "_build/default/bin/nbti_tool.exe";
  if not (Sys.file_exists !Sut.tool) then begin
    prerr_endline ("agingbench: " ^ !Sut.tool ^ " is not built");
    exit 2
  end;
  (* Daemons and in-process runs work in a scratch directory of their
     own, not the repo root (serve reads files from its working dir). *)
  let base = Filename.concat root ".agingbench" in
  let scratch = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir scratch 0o755;
  Sys.chdir scratch;
  at_exit (fun () ->
      Sut.stop_all ();
      Sys.chdir root;
      rm_rf scratch);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* stopped from outside, still stop the daemons *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let result =
    match (!workload, !trace) with
    | "mc_sampling", 0 -> mc_e2e ~seed:!seed ~seconds:!seconds
    | w, 0 -> served_e2e ((List.assoc w Served.specs) ~seed:!seed) ~seconds:!seconds
    | w, _ -> Layers.traced ~root ~workload:w ~seed:!seed ~seconds:!seconds
  in
  print_result result
