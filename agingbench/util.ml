(* Timing, order statistics, JSON helpers and the host fingerprint. *)

module Json = Server.Json

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics (NumPy's default), on
   a copy: [quantile 0.5] is the median. *)
let quantile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  Array.sort compare a;
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Round [r] of a run draws its inputs from this stream only. *)
let round_rng ~seed r = Physics.Rng.create ~seed:((seed * 7919) + r)
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (List.length xs)

(* Reads to end of file: /proc files report a length of zero. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

let write_file path body =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc body)

let lines_of path = String.split_on_char '\n' (read_file path)

(* "Key:   value" lines of /proc files. *)
let proc_field path key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (try lines_of path with Sys_error _ -> [])

(* Peak resident set in MB ("VmHWM:  123456 kB"). *)
let peak_rss_mb pid =
  match proc_field (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM for pid " ^ pid)

(* User+system CPU seconds of a whole process (all threads), from
   /proc/PID/stat fields 14 and 15 in USER_HZ (100 on Linux). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may contain spaces: fields start after ") " *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest.(0) is field 3 (state); utime is field 14, stime field 15 *)
  float_of_string f.(11) +. float_of_string f.(12) |> fun ticks -> ticks /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let count_cpus list =
  (* "0-1,4" -> 3 *)
  List.fold_left
    (fun acc part ->
      match String.split_on_char '-' (String.trim part) with
      | [ a ] when a <> "" -> acc + 1
      | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
      | _ -> acc)
    0
    (String.split_on_char ',' list)

(* Ticks (1/100 s) the hypervisor ran other guests while this
   machine's CPUs wanted to run: the "steal" column of /proc/stat. *)
let steal () =
  match String.split_on_char ' ' (List.hd (lines_of "/proc/stat")) |> List.filter (( <> ) "") with
  | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal
  | _ -> 0.0

let online_cpus () =
  List.length
    (List.filter
       (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
       (lines_of "/proc/stat"))

(* Share of the machine's CPU time stolen over [f ()], in percent. *)
let stolen f =
  let s0 = steal () and t0 = now () in
  let r = f () in
  let pct = 100.0 *. (steal () -. s0) /. (100.0 *. (now () -. t0) *. float_of_int (online_cpus ())) in
  (r, pct)

let host_json ~pool_domains ~steal_pct =
  let nproc =
    match proc_field "/proc/self/status" "Cpus_allowed_list" with
    | Some l -> count_cpus l
    | None -> Domain.recommended_domain_count ()
  in
  let cpu_model =
    Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name")
  in
  Json.Assoc
    [
      ("nproc", Json.Int nproc);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("cpu_model", Json.String cpu_model);
      ("pool_domains", Json.Int pool_domains);
      ("steal_pct", Json.Float steal_pct);
    ]

(* Drop the per-request fields that legitimately differ between a
   cached / routed answer and a fresh one: the envelope's "id" and the
   result's "cached" flag. *)
let normalize_response line =
  match Json.of_string line with
  | Json.Assoc kvs ->
    let kvs = List.filter (fun (k, _) -> k <> "id") kvs in
    let kvs =
      List.map
        (fun (k, v) ->
          match (k, v) with
          | "result", Json.Assoc r -> (k, Json.Assoc (List.filter (fun (k, _) -> k <> "cached") r))
          | _ -> (k, v))
        kvs
    in
    Json.to_string (Json.Assoc kvs)
  | other -> Json.to_string other

let result_of line =
  match Server.Protocol.response_result (Json.of_string line) with
  | Ok r -> r
  | Error (code, msg) -> failwith (Printf.sprintf "error response %s: %s" code msg)

(* The neighbourhood of the first byte where two strings differ. *)
let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do incr i done;
  let around s =
    let lo = max 0 (!i - 60) in
    String.sub s lo (min 120 (String.length s - lo))
  in
  Printf.sprintf "got ...%s... expected ...%s..." (around a) (around b)
