(* The result line and the metrics shared by every workload. *)

module Json = Util.Json

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let metric name value unit = (name, value, unit)

let print_result r =
  let m =
    Json.Assoc
      (List.map
         (fun (n, v, u) -> (n, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String u) ]))
         r.metrics)
  in
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", m);
          ]))

(* A failure is expected only when it is the named IVC fault on the
   design sweep; anything else makes the run incorrect. *)
let tally ~workload verdicts problems =
  let failed = ref 0 and unexpected = ref [] in
  Array.iter
    (function
      | Checks.Pass -> ()
      | Checks.Fault m ->
        incr failed;
        if workload <> "design_sweep" then unexpected := m :: !unexpected
      | Checks.Fail m ->
        incr failed;
        unexpected := m :: !unexpected)
    verdicts;
  List.iter (fun p -> prerr_endline ("agingbench: self-test: " ^ p)) problems;
  List.iteri
    (fun i m -> if i < 5 then prerr_endline ("agingbench: unexpected failure: " ^ m))
    (List.rev !unexpected);
  (!failed, problems = [] && !unexpected = [])

let latency_metrics ~tail lats =
  let n = List.length lats in
  if float_of_int n *. (1.0 -. tail) < 10.0 then
    Printf.eprintf "agingbench: only %d samples; p%g has fewer than ten beyond it\n%!" n (tail *. 100.0);
  [
    metric "latency_p50_ms" (1e3 *. Util.median lats) "ms";
    metric "latency_tail_ms" (1e3 *. Util.quantile tail lats) "ms";
  ]

let e2e_metrics ~ops ~window_s ~lats ~tail ~cpu_s ~rss_mb ~setups =
  [ metric "throughput_ops_s" (float_of_int ops /. window_s) "ops/s" ]
  @ latency_metrics ~tail lats
  @ [
      metric "cpu_ms_per_op" (1e3 *. cpu_s /. float_of_int ops) "ms";
      metric "peak_rss_mb" rss_mb "MB";
      metric "setup_s" (Util.median setups) "s";
    ]

(* The host fingerprint, one JSON line before the result; [steal_pct]
   is the share of CPU time the hypervisor took over the measured
   window, which slows every wall-clock figure of the run. *)
let host ~pool_domains ~steal_pct =
  print_endline (Json.to_string (Json.Assoc [ ("host", Util.host_json ~pool_domains ~steal_pct) ]))
