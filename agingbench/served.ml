(* The three served workloads: one load-generator process drives
   [serve] (or [route] in front of two [serve]s) closed loop over Unix
   sockets, one thread per connection; every answer is checked after
   the measured window. *)

module Json = Util.Json
module P = Server.Protocol

(* --- request lines --- *)

let names = [ "c17"; "c432"; "c499"; "c880"; "c1355"; "c1908"; "c2670"; "c3540"; "c5315"; "c6288"; "c7552" ]

let named c = Json.String c
let upload text = Json.Assoc [ ("bench", Json.String text) ]

let config ~years ~t_standby ~ras =
  Json.Assoc
    [
      ("years", Json.Float years);
      ("t_standby", Json.Float t_standby);
      ("ras", Json.List [ Json.Float 1.0; Json.Float ras ]);
    ]

let request op circuit ?config fields =
  Json.to_string
    (Json.Assoc
       ([ ("v", Json.Int 1); ("op", Json.String op); ("circuit", circuit) ]
       @ (match config with Some c -> [ ("config", c) ] | None -> [])
       @ fields))

let analyze ?config circuit standby =
  request "analyze" circuit ?config [ ("standby", Json.String standby) ]

let job_of_line line =
  match P.envelope_of_json (Json.of_string line) with
  | Ok { P.request = P.Single job; _ } -> job
  | _ -> invalid_arg ("not a single-job request: " ^ line)

(* --- workloads --- *)

type spec = {
  name : string;
  conns : int;
  n_backends : int;  (** 1: one [serve]; 2: [route] in front of two *)
  warm : string list;  (** the warm pass, sent once over one connection *)
  round : int -> string list;
      (** the lines every connection sends in round [r], in order *)
  check : (string * string) list -> Checks.outcome array * string list;
      (** verdict per (request, response) and the self-test problems *)
  tail : float;  (** the tail percentile reported as latency_tail_ms *)
}

let shuffle rng l =
  let a = Array.of_list l in
  Physics.Rng.shuffle rng a;
  Array.to_list a

let memo f =
  let h = Hashtbl.create 64 in
  fun k ->
    match Hashtbl.find_opt h k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.add h k v;
      v

(* Answers compared with a fresh in-process service fed the same
   traffic (the warm pass, then each line in first-seen order), plus
   the worst >= best standby property per circuit. *)
let check_against_fresh_service ~warm pairs =
  let fresh = Server.Service.create () in
  let reference = memo (Server.Service.handle_line fresh) in
  List.iter (fun l -> ignore (reference l)) warm;
  let aged line = snd (Checks.analysis_props (Checks.analysis_of_response line)) in
  let verdict (req, resp) =
    Checks.run (fun () ->
        Checks.same_answer ~expected:(reference req) resp;
        match Json.member "standby" (Json.of_string req) with
        | Json.String "worst" ->
          let best =
            match Json.of_string req with
            | Json.Assoc kvs ->
              Json.to_string
                (Json.Assoc (List.map (fun (k, v) -> if k = "standby" then (k, Json.String "best") else (k, v)) kvs))
            | _ -> assert false
          in
          if aged resp < aged (reference best) then Checks.reject "worst-standby delay below best"
        | _ -> ())
  in
  let verdicts = Array.of_list (List.map verdict pairs) in
  let problems =
    match List.filteri (fun i _ -> verdicts.(i) = Checks.Pass) pairs with
    | (req, resp) :: _ ->
      Checks.self_test ~name:"fresh-service analysis check" ~kind:`Analysis
        (fun r -> Checks.same_answer ~expected:(reference req) r)
        resp
    | [] -> [ "no answers to self-test on" ]
  in
  (verdicts, problems)

(* repeat_named: the eleven ISCAS85 names x {worst, best}, all result
   cache hits after the warm pass. Hit latency follows circuit size;
   each round sends c6288/worst three times and c7552/worst twice so
   that, of 25 lines, eleven are cheaper and eleven dearer than the
   c6288/worst block (the median sits in its middle) and the tail
   percentile sits inside the c7552/worst block. *)
let repeat_named ~seed =
  let keys = List.concat_map (fun c -> [ analyze (named c) "worst"; analyze (named c) "best" ]) names in
  let mix = keys @ [ analyze (named "c6288") "worst"; analyze (named "c6288") "worst"; analyze (named "c7552") "worst" ] in
  {
    name = "repeat_named";
    conns = 1;
    n_backends = 1;
    warm = keys;
    round = (fun r -> shuffle (Util.round_rng ~seed r) mix);
    check = check_against_fresh_service ~warm:keys;
    tail = 0.95;
  }

(* design_sweep: result-cache misses only. Per circuit and round: an
   analyze sweep over years x t_standby x ras at worst standby, one
   best-standby point, an IVC search at a sweep point and one at the
   warm config, and two sleep-transistor sizings. c6288 sweeps three
   lifetimes, the others two: of the 56 lines, 22 are cheaper and 23
   dearer than the c880 block, so the median sits inside it, and the
   two c6288 IVC searches hold the tail percentile. *)
let sweep_circuits = [ "c432"; "c499"; "c880"; "c6288" ]

let design_round ~seed r =
  let rng = Util.round_rng ~seed r in
  let u lo hi = lo +. Physics.Rng.float rng (hi -. lo) in
  List.concat_map
    (fun c ->
      let y1 = u 1.0 5.0 and y2 = u 5.0 10.0 in
      let years = if c = "c6288" then [ y1; u 5.0 10.0; y2 ] else [ y1; y2 ] in
      let ts1 = u 300.0 340.0 and ts2 = u 340.0 380.0 in
      let r1 = u 2.0 6.0 and r2 = u 6.0 12.0 in
      let cfg years t_standby ras = config ~years ~t_standby ~ras in
      let sweep =
        List.concat_map
          (fun y ->
            List.concat_map
              (fun ts -> List.map (fun ras -> analyze ~config:(cfg y ts ras) (named c) "worst") [ r1; r2 ])
              [ ts1; ts2 ])
          years
      in
      let ivc config_ =
        request "ivc_search" (named c) ?config:config_
          [ ("seed", Json.Int (1 + Physics.Rng.int rng 1_000_000_000)) ]
      in
      let sleep style config_ =
        request "sleep_sizing" (named c) ~config:config_ [ ("style", Json.String style) ]
      in
      sweep
      @ [
          analyze ~config:(cfg y2 ts1 r1) (named c) "best";
          ivc (Some (cfg y2 ts2 r2));
          ivc None;
          sleep "footer" (cfg y1 ts1 r1);
          sleep "header" (cfg y2 ts2 r2);
        ])
    sweep_circuits

let check_design pairs =
  let pool = Parallel.Pool.default () in
  let flow_cfg flow = { (P.platform_config flow) with Flow.Platform.pool = Some pool } in
  let prepared =
    memo (fun (c, fp) ->
        ignore fp;
        Flow.Platform.prepare (flow_cfg P.default_flow_spec) (Circuit.Generators.by_name c))
  in
  let setup job =
    let circuit, flow =
      match job with
      | P.Analyze { circuit = P.Named c; flow; _ }
      | P.Ivc_search { circuit = P.Named c; flow; _ }
      | P.Sleep_sizing { circuit = P.Named c; flow; _ } ->
        (c, flow)
      | _ -> invalid_arg "design_sweep sends named circuits only"
    in
    let cfg = flow_cfg flow in
    (cfg, prepared (circuit, Flow.Platform.prepare_fingerprint cfg))
  in
  let check_one req resp =
    let job = job_of_line req in
    let cfg, p = setup job in
    match job with
    | P.Analyze { standby; _ } ->
      let standby =
        match standby with
        | P.Worst -> Aging.Circuit_aging.Standby_all_stressed
        | P.Best -> Aging.Circuit_aging.Standby_all_relaxed
        | P.Vector v -> Aging.Circuit_aging.Standby_vector v
      in
      Checks.analysis_matches ~expected:(Flow.Platform.analyze cfg p ~standby) resp
    | P.Ivc_search _ ->
      Checks.ivc_answer
        ~analyze_vector:(fun v ->
          Flow.Platform.analyze cfg p ~standby:(Aging.Circuit_aging.Standby_vector v))
        resp
    | P.Sleep_sizing { style; beta; vth_st; nbti_aware; _ } ->
      Checks.st_answer
        ~expected:(Flow.Platform.optimize_st cfg p ~style ~beta ?vth_st ~nbti_aware ())
        resp
  in
  let verdicts = Array.of_list (List.map (fun (q, r) -> Checks.run (fun () -> check_one q r)) pairs) in
  (* Cross-answer properties: the aged delay does not decrease as years
     grow, and worst standby ages at least as much as best. *)
  let analyses =
    List.mapi (fun i (q, r) -> (i, job_of_line q, r)) pairs
    |> List.filter_map (fun (i, job, r) ->
           match (job, verdicts.(i)) with
           | P.Analyze { circuit = P.Named c; flow; standby }, Checks.Pass ->
             let aged = snd (Checks.analysis_props (Checks.analysis_of_response r)) in
             Some (i, c, flow, standby, aged)
           | _ -> None)
  in
  let fail i m = verdicts.(i) <- Checks.Fail m in
  List.iter
    (fun (i, c, (f : P.flow_spec), standby, aged) ->
      List.iter
        (fun (_, c', (f' : P.flow_spec), standby', aged') ->
          let same_point = c = c' && f.P.t_standby = f'.P.t_standby && f.P.ras = f'.P.ras in
          if same_point && standby = standby' && f'.P.years < f.P.years && aged < aged' then
            fail i "aged delay decreases as years grow";
          if same_point && f.P.years = f'.P.years && standby = P.Worst && standby' = P.Best && aged < aged'
          then fail i "worst-standby delay below best")
        analyses)
    analyses;
  (* self-tests start from an answer that passed *)
  let first kind =
    List.find_opt
      (fun (i, (q, _)) ->
        verdicts.(i) = Checks.Pass
        &&
        match (job_of_line q, kind) with
        | P.Analyze _, `Analysis | P.Ivc_search _, `Ivc | P.Sleep_sizing _, `Sleep -> true
        | _ -> false)
      (List.mapi (fun i p -> (i, p)) pairs)
    |> Option.map snd
  in
  let problems =
    List.concat_map
      (fun (kind, name) ->
        match first kind with
        | Some (q, r) -> Checks.self_test ~name ~kind (check_one q) r
        | None -> [ "no " ^ name ^ " answer to self-test on" ])
      [ (`Analysis, "analysis check"); (`Ivc, "IVC check"); (`Sleep, "sleep check") ]
  in
  (verdicts, problems)

let design_sweep ~seed =
  {
    name = "design_sweep";
    conns = 1;
    n_backends = 1;
    (* prepares every circuit at the default config *)
    warm = List.map (fun c -> analyze (named c) "worst") sweep_circuits;
    round = design_round ~seed;
    check = check_design;
    tail = 0.98;
  }

(* routed_upload: analyze over the router, as inline .bench uploads and
   by name; hits plus per-round misses, the same lines on both
   connections so that concurrent identical misses coalesce. *)
(* No circuit is both uploaded and named: the two spellings share a
   digest, so answers would carry whichever name reached the caches
   first, which differs between one daemon and two (see CHANGES.md). *)
let upload_circuits = [ "c880"; "c1908" ]
let routed_named = [ "c432"; "c6288" ]

let routed_upload ~seed =
  let texts = List.map (fun c -> upload (Circuit.Bench_io.to_string (Circuit.Generators.by_name c))) upload_circuits in
  let hits =
    List.map (fun t -> analyze t "worst") texts @ List.map (fun c -> analyze (named c) "worst") routed_named
  in
  (* Per round: c432 hit x2 and miss, c6288 hit x2, c880 upload hit and
     miss, c1908 upload hit. Three lines are cheaper and three dearer
     than the c6288 block, so the median sits in its middle; the tail
     percentile falls inside the c1908 upload block. *)
  let round r =
    let rng = Util.round_rng ~seed r in
    let years () = 1.0 +. Physics.Rng.float rng 9.0 in
    let miss circuit = analyze ~config:(config ~years:(years ()) ~t_standby:330.0 ~ras:9.0) circuit "worst" in
    let c432 = analyze (named "c432") "worst" and c6288 = analyze (named "c6288") "worst" in
    shuffle rng (hits @ [ c432; c6288; miss (List.hd texts); miss (named "c432") ])
  in
  {
    name = "routed_upload";
    conns = 2;
    n_backends = 2;
    warm = hits;
    round;
    check = check_against_fresh_service ~warm:hits;
    tail = 0.99;
  }

let specs = [ ("repeat_named", repeat_named); ("design_sweep", design_sweep); ("routed_upload", routed_upload) ]

(* --- the system under test --- *)

type sut = { procs : Sut.daemon list; entry : Sut.daemon; backends : Sut.daemon list }

let start ?(trace = false) spec =
  if spec.n_backends = 1 then
    let d = Sut.serve ~trace "serve" in
    { procs = [ d ]; entry = d; backends = [ d ] }
  else
    let bs = List.init spec.n_backends (fun i -> Sut.serve ~trace (Printf.sprintf "backend%d" i)) in
    let r = Sut.route ~trace "router" bs in
    { procs = r :: bs; entry = r; backends = bs }

let pool_domains sut =
  let c = Sut.connect (List.hd sut.backends).Sut.sock in
  let d = Json.to_int (Json.member "domains" (Json.member "pool" (Sut.stats c))) in
  Sut.close c;
  d

let stop sut = List.iter (fun d -> Sut.stop d.Sut.pid) sut.procs

let warm_pass spec sut =
  let c = Sut.connect sut.entry.Sut.sock in
  Fun.protect
    ~finally:(fun () -> Sut.close c)
    (fun () ->
      List.iter
        (fun l -> ignore (Util.result_of (Sut.call c l)))
        spec.warm)

(* Start-up to ready plus the warm pass. *)
let setup ?trace spec =
  let t0 = Util.now () in
  let sut = start ?trace spec in
  warm_pass spec sut;
  (sut, Util.now () -. t0)

(* --- the closed loop --- *)

type sample = { req : string; resp : string; lat_s : float; start_s : float; conn : int }

type window = { samples : sample list; window_s : float; rounds : int }

(* Every connection sends round r's lines one at a time, waiting for
   each reply; rounds start together (a barrier) and a new round starts
   only while time is left, so every run is made of whole rounds. *)
let drive spec sut ~seconds =
  let conns = List.init spec.conns (fun _ -> Sut.connect sut.entry.Sut.sock) in
  let n = spec.conns in
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and generation = ref 0 and go_on = ref true in
  let t_start = Util.now () in
  let deadline = t_start +. seconds in
  let barrier () =
    Mutex.lock m;
    let g = !generation in
    incr arrived;
    if !arrived = n then begin
      arrived := 0;
      go_on := Util.now () < deadline;
      incr generation;
      Condition.broadcast cv
    end
    else while !generation = g do Condition.wait cv m done;
    let g = !go_on in
    Mutex.unlock m;
    g
  in
  let results = Array.make n [] and rounds = ref 0 in
  let worker i =
    let c = List.nth conns i in
    let acc = ref [] and r = ref 0 in
    while barrier () do
      List.iter
        (fun line ->
          let t0 = Util.now () in
          let resp = Sut.call c line in
          acc := { req = line; resp; lat_s = Util.now () -. t0; start_s = t0 -. t_start; conn = i } :: !acc)
        (spec.round !r);
      incr r
    done;
    results.(i) <- List.rev !acc;
    if i = 0 then rounds := !r
  in
  (if n = 1 then worker 0
   else
     (* a connection that fails ends the run: its partner would wait at
        the barrier for ever *)
     let guarded i =
       try worker i
       with e ->
         prerr_endline ("agingbench: connection failed: " ^ Printexc.to_string e);
         exit 3
     in
     let ts = List.init n (fun i -> Thread.create guarded i) in
     List.iter Thread.join ts);
  let window_s = Util.now () -. t_start in
  List.iter Sut.close conns;
  { samples = List.concat (Array.to_list results); window_s; rounds = !rounds }
