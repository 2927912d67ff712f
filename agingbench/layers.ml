(* The traced run (--trace 1): per-layer figures. The workload runs
   untraced, then again against daemons (or a process) with span
   recording on, so the difference gives the tracing overhead; then the
   benchmark times calls into each layer's public functions from its own
   code, writing one span per call to a Chrome trace. Layers a workload
   does not reach are measured on a fixed reference call (see README). *)

module Json = Util.Json
module P = Server.Protocol

(* --- spans recorded by the benchmark --- *)

let t_origin = Util.now ()
let events = ref []
let events_lock = Mutex.create ()

let span name f =
  let t0 = Util.now () in
  let r = f () in
  let dt = Util.now () -. t0 in
  Mutex.lock events_lock;
  events := (name, t0, dt, 0) :: !events;
  Mutex.unlock events_lock;
  (r, dt)

let own_trace () =
  Json.Assoc
    [
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun (name, t0, dt, tid) ->
               Json.Assoc
                 [
                   ("name", Json.String name);
                   ("cat", Json.String "agingbench");
                   ("ph", Json.String "X");
                   ("ts", Json.Float ((t0 -. t_origin) *. 1e6));
                   ("dur", Json.Float (dt *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int tid);
                 ])
             !events) );
    ]

(* --- per-layer accumulators --- *)

let acc : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v = Hashtbl.replace acc name (v :: Option.value ~default:[] (Hashtbl.find_opt acc name))
let has name = Hashtbl.mem acc name

(* Runs a reference measurement: it supplies only the metrics the
   workload did not measure itself. *)
let reference_for_missing f =
  let own = Hashtbl.copy acc in
  f ();
  Hashtbl.iter (fun k v -> Hashtbl.replace acc k v) own
let mean_of name = Util.mean (Hashtbl.find acc name)
let ms dt = 1e3 *. dt

(* --- request layers, replayed in process --- *)

let circuit_of = function
  | P.Analyze { circuit; _ } | P.Ivc_search { circuit; _ } | P.Sleep_sizing { circuit; _ } -> circuit

let resolve = function
  | P.Named n -> Circuit.Generators.by_name n
  | P.Bench text -> (
    match Circuit.Bench_io.parse_result ~name:"inline" text with
    | Ok net -> net
    | Error e -> failwith (Circuit.Bench_io.error_to_string e))

let standby_state = function
  | P.Worst -> Aging.Circuit_aging.Standby_all_stressed
  | P.Best -> Aging.Circuit_aging.Standby_all_relaxed
  | P.Vector v -> Aging.Circuit_aging.Standby_vector v

(* The flow call a cache miss makes, timed apart from the service. *)
let flow_call =
  let prepared = Hashtbl.create 8 in
  fun ~pool job net ->
    let flow =
      match job with
      | P.Analyze { flow; _ } | P.Ivc_search { flow; _ } | P.Sleep_sizing { flow; _ } -> flow
    in
    let cfg = { (P.platform_config flow) with Flow.Platform.pool = Some pool } in
    let key = Circuit.Netlist.digest net ^ Flow.Platform.prepare_fingerprint cfg in
    let p =
      match Hashtbl.find_opt prepared key with
      | Some p -> p
      | None ->
        let p, dt = span "flow.prepare" (fun () -> Flow.Platform.prepare cfg net) in
        add "flow.prepare_ms" (ms dt);
        Hashtbl.add prepared key p;
        p
    in
    match job with
    | P.Analyze { standby; _ } ->
      let _, dt = span "flow.analyze" (fun () -> Flow.Platform.analyze cfg p ~standby:(standby_state standby)) in
      add "flow.analyze_ms" (ms dt);
      dt
    | P.Ivc_search { seed; pool = cands; tolerance; _ } ->
      let (_, stats), dt =
        span "flow.ivc" (fun () ->
            Flow.Platform.optimize_ivc cfg p ~rng:(Physics.Rng.create ~seed) ~pool:cands ?tolerance ())
      in
      add "flow.ivc_ms" (ms dt);
      add "ivc.evaluations_per_search" (float_of_int stats.Ivc.Mlv.evaluations);
      dt
    | P.Sleep_sizing { style; beta; vth_st; nbti_aware; _ } ->
      let _, dt =
        span "flow.sleep" (fun () -> Flow.Platform.optimize_st cfg p ~style ~beta ?vth_st ~nbti_aware ())
      in
      add "flow.sleep_ms" (ms dt);
      dt

(* Times decode, resolve, digest, the whole in-process handle and encode
   for each line on a warm service; a miss also times its flow call.
   Returns the median in-process handle time of each warm-pass line,
   answered from the cache. *)
let replay ~warm ~lines ~misses =
  let pool = Parallel.Pool.default () in
  let svc = Server.Service.create ~pool () in
  List.iter (fun l -> ignore (Server.Service.handle_line svc l)) warm;
  let handle_hit = Hashtbl.create 64 in
  List.iter
    (fun l ->
      Hashtbl.replace handle_hit l
        (Util.median (List.init 5 (fun _ -> snd (Util.time (fun () -> Server.Service.handle_line svc l))))))
    warm;
  List.iter
    (fun line ->
      let (json, env), t_dec =
        span "request.decode" (fun () ->
            let j = Json.of_string line in
            (j, P.envelope_of_json j))
      in
      ignore json;
      let job =
        match env with Ok { P.request = P.Single job; _ } -> job | _ -> invalid_arg "replay: not a job"
      in
      let net, t_res = span "request.resolve" (fun () -> resolve (circuit_of job)) in
      let _, t_dig = span "request.digest" (fun () -> Circuit.Netlist.digest net) in
      let resp, t_handle = span "request.handle" (fun () -> Server.Service.handle_line svc line) in
      let rjson = Json.of_string resp in
      let _, t_enc = span "request.encode" (fun () -> Json.to_string rjson) in
      let t_flow = if misses then flow_call ~pool job net else 0.0 in
      add "request.decode_ms" (ms t_dec);
      add "request.resolve_ms" (ms t_res);
      add "request.digest_ms" (ms t_dig);
      add "request.handle_ms" (ms t_handle);
      add "request.encode_ms" (ms t_enc);
      add "request.unattributed_ms" (ms (t_handle -. t_dec -. t_res -. t_dig -. t_enc -. t_flow)))
    lines;
  handle_hit

(* Allocation per handled request, on a one-domain service so that
   every word is counted by this domain's Gc counters. *)
let gc_per_request ~warm ~lines =
  Parallel.Pool.with_pool ~domains:1 @@ fun one ->
  let svc = Server.Service.create ~pool:one () in
  List.iter (fun l -> ignore (Server.Service.handle_line svc l)) warm;
  List.iter
    (fun line ->
      let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
      ignore (Server.Service.handle_line svc line);
      add "gc.minor_words_per_op" (Gc.minor_words () -. w0);
      add "gc.major_collections_per_op" (float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0)))
    lines

(* --- the sampling kernels --- *)

let samples_per_study = 500

(* Each call at the default pool and at one domain; Gc counters around
   the one-domain calls (OCaml 5 counts only the calling domain). *)
let sampling ~(ctx : Mc.ctx) ~seeds =
  Parallel.Pool.with_pool ~domains:1 @@ fun one ->
  List.iter
    (fun seed ->
      let one_domain name f =
        let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
        let _, dt = span name f in
        let words = Gc.minor_words () -. w0 in
        add "gc.minor_words_per_op" words;
        add "gc.major_collections_per_op" (float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0));
        (dt, words)
      in
      let _, t_def = span "variation.run" (fun () -> Mc.study ~pool:ctx.Mc.pool ctx seed) in
      let t_one, words = one_domain "variation.run.1domain" (fun () -> Mc.study ~pool:one ctx seed) in
      add "variation.minor_words_per_sample" (words /. float_of_int samples_per_study);
      add "variation.samples_per_s" (float_of_int samples_per_study /. t_def);
      add "variation.domain_speedup" (t_one /. t_def);
      let data = Calibrate.Synth.generate ~seed () in
      let cfg = Mc.calibration_config seed in
      let draws =
        float_of_int (cfg.Calibrate.Engine.n_chains * (cfg.Calibrate.Engine.warmup + cfg.Calibrate.Engine.samples))
      in
      let _, c_def = span "calibrate.run" (fun () -> Mc.calibrate ~pool:ctx.Mc.pool (data, seed)) in
      let c_one, words = one_domain "calibrate.run.1domain" (fun () -> Mc.calibrate ~pool:one (data, seed)) in
      add "calibrate.minor_words_per_draw" (words /. draws);
      add "calibrate.draws_per_s" (draws /. c_def);
      add "calibrate.domain_speedup" (c_one /. c_def))
    seeds

(* --- the wire and the forward hop --- *)

(* The cheapest cached lines, by one direct round trip each: on them
   the hop and the socket, not the backend's work, set the difference. *)
let cheapest ~(daemon : Sut.daemon) lines =
  let c = Sut.connect daemon.Sut.sock in
  let timed = List.map (fun l -> (snd (Util.time (fun () -> Sut.call c l)), l)) lines in
  Sut.close c;
  List.filteri (fun i _ -> i < 4) (List.map snd (List.sort compare timed))

(* Routed and direct round trips to the owning backend in ABBA order;
   per line, the median of (routed - direct) is the forward hop, and the
   median direct round trip less the in-process handle is the wire. *)
let forward_and_wire ~(router : Sut.daemon) ~backends ~lines ~handle_hit =
  let ring = Sut.ring backends in
  let owner line =
    let job = Served.job_of_line line in
    let key = P.job_cache_key job ~circuit_digest:(Circuit.Netlist.digest (resolve (circuit_of job))) in
    let name = List.hd (Fleet.Ring.owners ring key) in
    List.find
      (fun b -> Server.Netline.endpoint_to_string (Server.Netline.Unix_socket b.Sut.sock) = name)
      backends
  in
  let rc = Sut.connect router.Sut.sock in
  let direct = List.map (fun b -> (b.Sut.sock, Sut.connect b.Sut.sock)) backends in
  List.iter
    (fun line ->
      let dc = List.assoc (owner line).Sut.sock direct in
      let d () = snd (span "fleet.direct" (fun () -> Sut.call dc line)) in
      let r () = snd (span "fleet.routed" (fun () -> Sut.call rc line)) in
      let pairs =
        List.init 10 (fun i ->
            if i mod 2 = 0 then
              let a = d () in
              (a, r ())
            else
              let b = r () in
              (d (), b))
      in
      add "fleet.forward_ms" (ms (Util.median (List.map (fun (a, b) -> b -. a) pairs)));
      add "request.wire_ms" (ms (Util.median (List.map fst pairs) -. Hashtbl.find handle_hit line)))
    lines;
  Sut.close rc;
  List.iter (fun (_, c) -> Sut.close c) direct

let router_counters ~router ~ops =
  let c = Sut.connect router.Sut.sock in
  let s = Sut.stats c in
  Sut.close c;
  let coalesced = Json.to_int (Json.member "coalesced" (Json.member "singleflight" s)) in
  let forwards =
    match Json.member "forward_attempts" (Json.member "counters" s) with
    | Json.Null -> 0
    | v -> Json.to_int v
  in
  add "fleet.coalesced_per_op" (float_of_int coalesced /. float_of_int ops);
  add "fleet.forwards_per_op" (float_of_int forwards /. float_of_int ops)

(* Hit ratios summed over the backends, and the pool utilisation. *)
let backend_stats backends =
  let stats =
    List.map
      (fun b ->
        let c = Sut.connect b.Sut.sock in
        let s = Sut.stats c in
        Sut.close c;
        s)
      backends
  in
  let ratio cache =
    let hits, total =
      List.fold_left
        (fun (h, t) s ->
          let c = Json.member cache (Json.member "cache" s) in
          let hi = Json.to_int (Json.member "hits" c) and mi = Json.to_int (Json.member "misses" c) in
          (h + hi, t + hi + mi))
        (0, 0) stats
    in
    if total = 0 then 0.0 else float_of_int hits /. float_of_int total
  in
  add "cache.result_hit_ratio" (ratio "results");
  add "cache.prepared_hit_ratio" (ratio "prepared");
  List.iter (fun s -> add "pool.utilization" (Json.to_float (Json.member "utilization" (Json.member "pool" s)))) stats

(* --- the runs --- *)

let reference = ref false

let served_layers (spec : Served.spec) ~seconds ~daemon_traces =
  let half = seconds /. 2.0 in
  (* untraced *)
  let sut, _ = Served.setup spec in
  let w0, steal_pct = Util.stolen (fun () -> Served.drive spec sut ~seconds:half) in
  if not !reference then Report.host ~pool_domains:(Served.pool_domains sut) ~steal_pct;
  let ops0 = List.length w0.Served.samples in
  if spec.Served.n_backends > 1 then router_counters ~router:sut.Served.entry ~ops:ops0;
  backend_stats sut.Served.backends;
  (* in-process replay of one round *)
  let lines = List.sort_uniq compare (spec.Served.round 0) in
  let misses = spec.Served.name = "design_sweep" in
  let handle_hit = replay ~warm:spec.Served.warm ~lines ~misses in
  gc_per_request ~warm:spec.Served.warm ~lines;
  (* the forward hop and the wire, on the cheapest cached lines *)
  let cached = cheapest ~daemon:sut.Served.entry spec.Served.warm in
  (if spec.Served.n_backends > 1 then
     forward_and_wire ~router:sut.Served.entry ~backends:sut.Served.backends ~lines:cached ~handle_hit
   else
     let r = Sut.route "router" sut.Served.backends in
     forward_and_wire ~router:r ~backends:sut.Served.backends ~lines:cached ~handle_hit;
     router_counters ~router:r ~ops:(10 * List.length cached);
     Sut.stop r.Sut.pid);
  Served.stop sut;
  (* traced: daemons record spans, the benchmark records one per request *)
  let sut, _ = Served.setup ~trace:true spec in
  let t0 = Util.now () in
  let w1 = Served.drive spec sut ~seconds:half in
  List.iter
    (fun s ->
      Mutex.lock events_lock;
      events := ("request", t0 +. s.Served.start_s, s.Served.lat_s, s.Served.conn) :: !events;
      Mutex.unlock events_lock)
    w1.Served.samples;
  List.iter
    (fun d ->
      let c = Sut.connect d.Sut.sock in
      let r = Util.result_of (Sut.call c {|{"v":1,"op":"trace_export"}|}) in
      Sut.close c;
      daemon_traces := (Some (Filename.basename d.Sut.sock), Json.member "trace" r) :: !daemon_traces)
    sut.Served.procs;
  Served.stop sut;
  let thr w = float_of_int (List.length w.Served.samples) /. w.Served.window_s in
  add "trace.overhead_pct" (100.0 *. ((thr w0 /. thr w1) -. 1.0));
  w0

(* The reference calls for layers a workload does not reach. *)
let reference_flow () =
  let pool = Parallel.Pool.default () in
  let net = Circuit.Generators.by_name "c880" in
  for _ = 1 to 3 do
    List.iter
      (fun line -> ignore (flow_call ~pool (Served.job_of_line line) net))
      [
        Served.analyze (Served.named "c880") "worst";
        Served.request "ivc_search" (Served.named "c880") [ ("seed", Json.Int 7) ];
        Served.request "sleep_sizing" (Served.named "c880") [];
      ]
  done

let reference_sampling () =
  let ctx, _ = Mc.setup () in
  sampling ~ctx ~seeds:[ 11 ];
  Parallel.Pool.shutdown ctx.Mc.pool

let reference_served ~seconds ~daemon_traces =
  (* the repeat_named stream over a shorter window *)
  reference := true;
  ignore (served_layers (Served.repeat_named ~seed:1) ~seconds ~daemon_traces)

let per_layer =
  [
    ("request.resolve_ms", "ms"); ("request.digest_ms", "ms"); ("request.decode_ms", "ms");
    ("request.encode_ms", "ms"); ("request.handle_ms", "ms"); ("request.unattributed_ms", "ms");
    ("request.wire_ms", "ms"); ("cache.result_hit_ratio", "ratio"); ("cache.prepared_hit_ratio", "ratio");
    ("flow.prepare_ms", "ms"); ("flow.analyze_ms", "ms"); ("flow.ivc_ms", "ms"); ("flow.sleep_ms", "ms");
    ("ivc.evaluations_per_search", "count"); ("pool.utilization", "ratio");
    ("variation.samples_per_s", "1/s"); ("calibrate.draws_per_s", "1/s");
    ("variation.domain_speedup", "x"); ("calibrate.domain_speedup", "x");
    ("variation.minor_words_per_sample", "words"); ("calibrate.minor_words_per_draw", "words");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections_per_op", "count");
    ("fleet.forward_ms", "ms"); ("fleet.coalesced_per_op", "ratio"); ("fleet.forwards_per_op", "count");
    ("trace.overhead_pct", "%");
  ]

let traced ~root ~workload ~seed ~seconds =
  let daemon_traces = ref [] in
  let attempted, correct, failed =
    if workload = "mc_sampling" then begin
      let ctx, _ = Mc.setup () in
      let half = seconds /. 2.0 in
      let w0, steal_pct = Util.stolen (fun () -> Mc.drive ctx ~seed ~seconds:half) in
      Report.host ~pool_domains:(Parallel.Pool.domains ctx.Mc.pool) ~steal_pct;
      let collector = Obs.Trace.create () in
      Obs.Trace.install collector;
      let w1 = Mc.drive ctx ~seed:(seed + 1) ~seconds:half in
      Obs.Trace.uninstall ();
      daemon_traces := [ (Some "mc_sampling", Json.of_string (Obs.Trace.to_chrome_json collector)) ];
      let thr (w : Mc.window) = float_of_int (List.length w.Mc.answers) /. w.Mc.window_s in
      add "trace.overhead_pct" (100.0 *. ((thr w0 /. thr w1) -. 1.0));
      add "pool.utilization" (Parallel.Pool.utilization (Parallel.Pool.stats ctx.Mc.pool));
      sampling ~ctx ~seeds:[ seed; seed + 1 ];
      let verdicts, problems = Mc.check ctx w0 in
      let failed, ok = Report.tally ~workload verdicts problems in
      Parallel.Pool.shutdown ctx.Mc.pool;
      reference_for_missing (fun () ->
          reference_served ~seconds:(Float.min 4.0 seconds) ~daemon_traces;
          reference_flow ());
      (List.length w0.Mc.answers, ok, failed)
    end
    else begin
      let spec = (List.assoc workload Served.specs) ~seed in
      let w0 = served_layers spec ~seconds ~daemon_traces in
      let pairs = List.map (fun s -> (s.Served.req, s.Served.resp)) w0.Served.samples in
      let verdicts, problems = spec.Served.check pairs in
      let failed, ok = Report.tally ~workload verdicts problems in
      reference_for_missing (fun () ->
          if not (has "flow.analyze_ms") then reference_flow ();
          reference_sampling ());
      (List.length pairs, ok, failed)
    end
  in
  (* one Chrome trace: the benchmark's spans and each process's own *)
  let out = Filename.concat root ".agingbench" in
  let path = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  let merged = Server.Tracefile.merge ((Some "agingbench", own_trace ()) :: List.rev !daemon_traces) in
  Util.write_file path (Json.to_string merged);
  Printf.eprintf "agingbench: Chrome trace written to %s\n%!" path;
  {
    Report.correct;
    attempted;
    failed;
    metrics =
      List.map
        (fun (name, unit) ->
          if not (has name) then failwith ("no measurement for " ^ name);
          Report.metric name (mean_of name) unit)
        per_layer;
  }
