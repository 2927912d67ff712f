(* mc_sampling: in-process calls from one caller on a default-sized
   pool — the c880 Fig. 12 variation study and Bayesian calibration on
   synthetic datasets — the sampling kernels no served workload
   reaches. *)

type op = Study of int | Calibration of Calibrate.Dataset.t * int

type raw = Raw_study of int * Variation.Process_var.study | Raw_posterior of Calibrate.Posterior.t

(* What a run keeps of an answer: its verdict so far, and for a study
   the digest its one-domain re-run must match. Keeping no studies or
   posteriors keeps the process's memory independent of run length. *)
type answer =
  | A_study of { seed : int; digest : string; props : Checks.outcome }
  | A_posterior of Checks.outcome

type ctx = {
  pool : Parallel.Pool.t;
  net : Circuit.Netlist.t;
  node_sp : float array;
  var_config : Variation.Process_var.config;
}

let standby = Aging.Circuit_aging.Standby_all_stressed

let study ?pool ctx seed =
  Variation.Process_var.run ?pool ctx.var_config ctx.net ~node_sp:ctx.node_sp ~standby
    ~rng:(Physics.Rng.create ~seed)

let calibration_config seed = { Calibrate.Engine.default_config with Calibrate.Engine.seed }

let calibrate ?pool (data, seed) = Calibrate.Engine.run ?pool (calibration_config seed) data

(* Three studies and one calibration per round: the median lands among
   the studies and the tail percentile among the calibrations. *)
let tail = 0.90

(* Calibrations draw from a fixed pool of (dataset seed, engine seed)
   pairs, each of which recovers the truth within four posterior SDs:
   about one seed pair in a hundred does not (see CHANGES.md), and an
   operation that fails on some seeds only cannot be counted steadily. *)
let calibration_pairs = Array.init 16 (fun i -> (i + 1, i + 100_001))

let round ~seed r =
  let rng = Util.round_rng ~seed r in
  let studies = List.init 3 (fun _ -> Study (1 + Physics.Rng.int rng 1_000_000_000)) in
  let data_seed, engine_seed = calibration_pairs.(Physics.Rng.int rng (Array.length calibration_pairs)) in
  studies @ [ Calibration (Calibrate.Synth.generate ~seed:data_seed (), engine_seed) ]

let run_op ctx = function
  | Study seed -> Raw_study (seed, study ~pool:ctx.pool ctx seed)
  | Calibration (data, seed) -> Raw_posterior (calibrate ~pool:ctx.pool (data, seed))

let truth = Calibrate.Synth.default_truth

let judge = function
  | Raw_study (seed, s) ->
    A_study { seed; digest = Checks.study_digest s; props = Checks.run (fun () -> Checks.study_props s) }
  | Raw_posterior p -> A_posterior (Checks.run (fun () -> Checks.posterior ~truth p))

(* A fresh default-sized pool, the c880 netlist and its signal
   probabilities, then one warm call of each kind. *)
let setup () =
  let t0 = Util.now () in
  let pool = Parallel.Pool.create () in
  let net = Circuit.Generators.by_name "c880" in
  let node_sp =
    Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
  in
  let var_config = Variation.Process_var.default_config (Aging.Circuit_aging.default_config ()) in
  let ctx = { pool; net; node_sp; var_config } in
  List.iter (fun op -> ignore (run_op ctx op)) (round ~seed:0 0);
  (ctx, Util.now () -. t0)

type window = {
  answers : (answer * float) list;  (** with each call's latency *)
  first_study : (int * Variation.Process_var.study) option;
  first_posterior : Calibrate.Posterior.t option;
  window_s : float;
  rounds : int;
}

let drive ctx ~seed ~seconds =
  let t0 = Util.now () in
  let acc = ref [] and r = ref 0 and first_study = ref None and first_posterior = ref None in
  while Util.now () -. t0 < seconds do
    List.iter
      (fun op ->
        let raw, dt = Util.time (fun () -> run_op ctx op) in
        (match raw with
        | Raw_study (sd, s) when !first_study = None -> first_study := Some (sd, s)
        | Raw_posterior p when !first_posterior = None -> first_posterior := Some p
        | _ -> ());
        acc := (judge raw, dt) :: !acc)
      (round ~seed !r);
    incr r
  done;
  {
    answers = List.rev !acc;
    first_study = !first_study;
    first_posterior = !first_posterior;
    window_s = Util.now () -. t0;
    rounds = !r;
  }

(* Every study is re-run on a one-domain pool and compared bit for bit. *)
let check ctx (w : window) =
  Parallel.Pool.with_pool ~domains:1 @@ fun one ->
  let one_domain_digest seed = Checks.study_digest (study ~pool:one ctx seed) in
  let verdict = function
    | A_study { seed; digest; props = Checks.Pass } ->
      Checks.run (fun () -> Checks.same_study ~one_domain_digest:(one_domain_digest seed) digest)
    | A_study { props; _ } -> props
    | A_posterior v -> v
  in
  let verdicts = Array.of_list (List.map (fun (a, _) -> verdict a) w.answers) in
  let problems =
    match (w.first_study, w.first_posterior) with
    | Some (seed, s), Some p ->
      let one_domain_digest = one_domain_digest seed in
      let check s () = Checks.study ~one_domain_digest s in
      let with_sample f =
        let samples = Array.copy s.Variation.Process_var.samples in
        samples.(0) <- f samples.(0);
        { s with Variation.Process_var.samples }
      in
      (* Away from the truth: a good mean lies within 4 SD of it, so one
         moved 5 SD further off lies outside on every seed (moved towards
         the truth it could land within 4 SD on the other side). *)
      let away_from_truth k (q : Calibrate.Posterior.t) =
        let params = Array.copy q.Calibrate.Posterior.params in
        let x = params.(0) in
        let m = x.Calibrate.Posterior.mean in
        let dir = if m >= (Calibrate.Model.to_array truth).(0) then 1.0 else -1.0 in
        params.(0) <- { x with Calibrate.Posterior.mean = m +. (dir *. k *. x.Calibrate.Posterior.sd) };
        { q with Calibrate.Posterior.params }
      in
      let nan_sd (q : Calibrate.Posterior.t) =
        let params = Array.copy q.Calibrate.Posterior.params in
        params.(1) <- { (params.(1)) with Calibrate.Posterior.sd = Float.nan };
        { q with Calibrate.Posterior.params }
      in
      (match Checks.run (check s) with Checks.Pass -> [] | _ -> [ "study check rejects a good study" ])
      @ (match Checks.run (fun () -> Checks.posterior ~truth p) with
        | Checks.Pass -> []
        | _ -> [ "calibration check rejects a good posterior" ])
      @ Checks.expect_reject ~name:"study check" "perturbed last digit of a sample's aged delay"
          (check
             (with_sample (fun x ->
                  { x with Variation.Process_var.aged_delay = Checks.perturb_last_digit x.Variation.Process_var.aged_delay })))
      @ Checks.expect_reject ~name:"study check" "NaN sample"
          (check (with_sample (fun x -> { x with Variation.Process_var.fresh_delay = Float.nan })))
      @ Checks.expect_reject ~name:"study check" "study with fresh and aged swapped"
          (check
              { s with Variation.Process_var.fresh = s.Variation.Process_var.aged; aged = s.Variation.Process_var.fresh })
      @ Checks.expect_reject ~name:"calibration check" "posterior mean moved 5 sd away from the truth"
          (fun () -> Checks.posterior ~truth (away_from_truth 5.0 p))
      @ Checks.expect_reject ~name:"calibration check" "NaN posterior sd"
          (fun () -> Checks.posterior ~truth (nan_sd p))
    | _ -> [ "no study or posterior to self-test on" ]
  in
  (verdicts, problems)
