(* Answer checkers. Each one checks a property the method must have or
   compares with a computation made in this process, apart from the
   daemon; [self_test] shows that each rejects corrupted answers. *)

module Json = Util.Json

exception Reject of string

(* The named fault: an IVC answer scored with another request's
   lifetime and temperatures (see the README). Raised only by the
   comparison against the independent analysis, after every other
   check on the answer has passed. *)
exception Stale of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

type outcome = Pass | Fault of string | Fail of string

let run f =
  match f () with
  | () -> Pass
  | exception Reject m -> Fail m
  | exception Stale m -> Fault m
  | exception (Json.Type_error m | Failure m | Json.Parse_error m) -> Fail m
  | exception Not_found -> Fail "missing element"

let field key j =
  match j with
  | Json.Assoc kvs -> (
    match List.assoc_opt key kvs with Some v -> v | None -> reject "missing field %S" key)
  | _ -> reject "not an object where %S was expected" key

let num key j =
  match field key j with
  | Json.Float f when Float.is_finite f -> f
  | Json.Int i -> float_of_int i
  | Json.Float f -> reject "%s is not finite (%h)" key f
  | Json.Null -> reject "%s is null" key
  | _ -> reject "%s is not a number" key

let same_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    reject "%s: %.17g, expected %.17g" what a b

(* --- served answers --- *)

let analysis_numbers =
  [ "fresh_delay_s"; "aged_delay_s"; "degradation"; "max_dvth_v"; "standby_leakage_a"; "active_leakage_a" ]

(* Properties of one [analysis] object; returns (fresh, aged). *)
let analysis_props a =
  List.iter (fun k -> ignore (num k a)) analysis_numbers;
  let fresh = num "fresh_delay_s" a and aged = num "aged_delay_s" a in
  if not (fresh > 0.0) then reject "fresh delay %g not positive" fresh;
  if not (aged >= fresh) then reject "aged delay %.17g below fresh %.17g" aged fresh;
  (fresh, aged)

let analysis_of_response line = field "analysis" (Util.result_of line)

(* A cached or routed answer must equal, byte for byte apart from "id"
   and "cached", the answer a fresh single service gives. *)
let same_answer ~expected line =
  ignore (analysis_props (analysis_of_response line));
  let got = Util.normalize_response line and want = Util.normalize_response expected in
  if got <> want then reject "answer differs from a fresh service's: %s" (Util.first_difference got want)

(* [analysis] equals the in-process [Flow.Platform.analyze] result. *)
let analysis_matches ~(expected : Flow.Platform.analysis) line =
  let a = analysis_of_response line in
  ignore (analysis_props a);
  let want = Json.to_string (Server.Protocol.json_of_analysis expected) in
  if Json.to_string a <> want then reject "analysis differs from the in-process flow"

let vector_of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with '1' -> true | '0' -> false | _ -> reject "bad vector %S" s)

(* IVC: [best] is the least-degradation entry of [all], and its aged
   delay and leakage equal an independent analysis with that vector as
   the standby state. *)
let ivc_answer ~(analyze_vector : bool array -> Flow.Platform.analysis) line =
  let ivc = field "ivc" (Util.result_of line) in
  let choice c =
    let v = Json.to_string_exn (field "vector" c) in
    ignore (vector_of_string v);
    (v, num "leakage_a" c, num "degradation" c, num "aged_delay_s" c)
  in
  let ((bv, bl, bd, ba) as best) = choice (field "best" ivc) in
  let all = List.map choice (Json.to_list (field "all" ivc)) in
  let fresh = num "fresh_delay_s" ivc in
  ignore (num "spread" ivc);
  ignore (num "evaluations" (field "search" ivc));
  if all = [] then reject "empty candidate list";
  if not (List.mem best all) then reject "best %s is not one of the candidates" bv;
  List.iter
    (fun (v, _, d, _) -> if d < bd then reject "candidate %s degrades less than best" v)
    all;
  if not (fresh > 0.0 && ba >= fresh) then reject "best aged delay %g below fresh %g" ba fresh;
  let a = analyze_vector (vector_of_string bv) in
  if
    Int64.bits_of_float a.Flow.Platform.aged_delay <> Int64.bits_of_float ba
    || Int64.bits_of_float a.Flow.Platform.standby_leakage <> Int64.bits_of_float bl
  then
    raise
      (Stale
         (Printf.sprintf "best %s: aged delay %.17g / leakage %.17g, analysis gives %.17g / %.17g"
            bv ba bl a.Flow.Platform.aged_delay a.Flow.Platform.standby_leakage))

let st_numbers =
  [
    "beta"; "fresh_delay_s"; "fresh_delay_with_st_s"; "aged_delay_with_st_s"; "total_degradation";
    "internal_degradation"; "st_penalty_aged"; "st_dvth_v";
  ]

(* Sleep transistor: the ST slows the circuit and aging slows it more;
   the answer equals the in-process [Flow.Platform.optimize_st]. *)
let st_answer ~(expected : Sleep.St_insertion.result) line =
  let st = field "sleep" (Util.result_of line) in
  List.iter (fun k -> ignore (num k st)) st_numbers;
  let fresh = num "fresh_delay_s" st
  and fresh_st = num "fresh_delay_with_st_s" st
  and aged_st = num "aged_delay_with_st_s" st in
  if not (fresh > 0.0 && fresh_st >= fresh && aged_st >= fresh_st) then
    reject "expected aged_with_st %g >= fresh_with_st %g >= fresh %g" aged_st fresh_st fresh;
  if Json.to_string st <> Json.to_string (Server.Protocol.json_of_st expected) then
    reject "sleep answer differs from the in-process flow"

(* --- in-process studies --- *)

let study_bits (s : Variation.Process_var.study) =
  let sum (x : Physics.Stats.summary) = [ x.Physics.Stats.mean; x.Physics.Stats.stddev ] in
  Array.to_list
    (Array.map
       (fun (p : Variation.Process_var.sample) ->
         [ p.Variation.Process_var.fresh_delay; p.Variation.Process_var.aged_delay ])
       s.Variation.Process_var.samples)
  |> List.concat
  |> fun l -> l @ sum s.Variation.Process_var.fresh @ sum s.Variation.Process_var.aged

(* The study's values as IEEE-754 bits, digested: equal digests mean
   bit-identical studies, so a run need not keep its studies. *)
let study_digest s =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) (study_bits s))))

(* The Fig. 12 study: finite, and on c880 the aged distribution is
   tighter than the fresh one and lies above it (the paper's
   crossover). *)
let study_props (s : Variation.Process_var.study) =
  List.iter (fun x -> if not (Float.is_finite x) then reject "non-finite value %h in study" x) (study_bits s);
  if not (Variation.Process_var.crossover s) then reject "no fresh/aged crossover";
  let sd (x : Physics.Stats.summary) = x.Physics.Stats.stddev in
  if not (sd s.Variation.Process_var.aged < sd s.Variation.Process_var.fresh) then
    reject "aged sigma %g not below fresh sigma %g"
      (sd s.Variation.Process_var.aged)
      (sd s.Variation.Process_var.fresh)

let same_study ~one_domain_digest digest =
  if digest <> one_domain_digest then reject "study differs from the same study on one domain"

(* Both checks on one study: what a run applies to each, in two steps. *)
let study ~one_domain_digest s =
  study_props s;
  same_study ~one_domain_digest (study_digest s)

(* Calibration: each ground-truth parameter within four posterior SDs. *)
let posterior ~(truth : Calibrate.Model.theta) (p : Calibrate.Posterior.t) =
  let t = Calibrate.Model.to_array truth in
  Array.iteri
    (fun i (s : Calibrate.Posterior.param_summary) ->
      let m = s.Calibrate.Posterior.mean and sd = s.Calibrate.Posterior.sd in
      if not (Float.is_finite m && Float.is_finite sd && sd > 0.0) then
        reject "%s: mean %g sd %g" s.Calibrate.Posterior.name m sd;
      if Float.abs (t.(i) -. m) > 4.0 *. sd then
        reject "%s: truth %g outside %g +- 4 x %g" s.Calibrate.Posterior.name t.(i) m sd)
    p.Calibrate.Posterior.params

(* --- self-tests --- *)

(* A different double whose %.17g text differs from [x]'s in the last
   digit (or, where the 17th digit is finer than the double's spacing,
   the last digit that changes the value). *)
let perturb_last_digit x =
  let s = Printf.sprintf "%.17g" x in
  let mant_end = match String.index_opt s 'e' with Some i -> i | None -> String.length s in
  let rec at i d =
    if i < 0 then invalid_arg ("perturb_last_digit " ^ s)
    else if d > 9 || s.[i] < '0' || s.[i] > '9' then at (i - 1) 1
    else
      let c = Char.chr (Char.code '0' + ((Char.code s.[i] - Char.code '0' + d) mod 10)) in
      let y = float_of_string (String.mapi (fun j ch -> if j = i then c else ch) s) in
      if Int64.bits_of_float y <> Int64.bits_of_float x then y else at i (d + 1)
  in
  at (mant_end - 1) 1

(* Rewrites the first (pre-order) occurrence of [key] in a JSON tree. *)
let rewrite_first key f json =
  let found = ref false in
  let rec go j =
    match j with
    | Json.Assoc kvs ->
      Json.Assoc
        (List.filter_map
           (fun (k, v) ->
             if (not !found) && k = key then begin
               found := true;
               Option.map (fun v -> (k, v)) (f v)
             end
             else Some (k, go v))
           kvs)
    | Json.List l -> Json.List (List.map go l)
    | other -> other
  in
  let r = go json in
  if not !found then invalid_arg ("rewrite_first: no " ^ key);
  r

let corrupt_line f line = Json.to_string (f (Json.of_string line))

let number_corruptions key =
  [
    ( "perturbed last digit of " ^ key,
      corrupt_line
        (rewrite_first key (function
          | Json.Float x -> Some (Json.Float (perturb_last_digit x))
          | _ -> invalid_arg "not a float")) );
    ("missing " ^ key, corrupt_line (rewrite_first key (fun _ -> None)));
    ("null " ^ key, corrupt_line (rewrite_first key (fun _ -> Some Json.Null)));
  ]

(* Replace best.vector by the vector of another candidate. *)
let swap_best_vector line =
  let j = Json.of_string line in
  let all = Json.to_list (Json.member "all" (Json.member "ivc" (Json.member "result" j))) in
  let best = Json.member "vector" (Json.member "best" (Json.member "ivc" (Json.member "result" j))) in
  let other =
    List.find_map
      (fun c -> let v = Json.member "vector" c in if v <> best then Some v else None)
      all
  in
  match other with
  | None -> invalid_arg "swap_best_vector: one candidate"
  | Some v -> Json.to_string (rewrite_first "vector" (fun _ -> Some v) j)

let corruptions ~kind =
  match kind with
  | `Analysis -> number_corruptions "aged_delay_s"
  | `Ivc -> ("swapped best vector", swap_best_vector) :: number_corruptions "aged_delay_s"
  | `Sleep -> number_corruptions "aged_delay_with_st_s"

(* Runs [check] on a good answer (must pass) and on each corruption of
   it (must not). Returns the list of problems found. *)
let self_test ~name ~kind check line =
  let problems = ref [] in
  (match run (fun () -> check line) with
  | Pass -> ()
  | Fault m | Fail m -> problems := Printf.sprintf "%s rejects a good answer: %s" name m :: !problems);
  List.iter
    (fun (what, corrupt) ->
      match run (fun () -> check (corrupt line)) with
      | Pass -> problems := Printf.sprintf "%s accepts a %s" name what :: !problems
      | Fault _ | Fail _ -> ())
    (corruptions ~kind);
  List.rev !problems

let expect_reject ~name what f =
  match run f with
  | Pass -> [ Printf.sprintf "%s accepts a %s" name what ]
  | Fault _ | Fail _ -> []
