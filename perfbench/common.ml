(* Shared plumbing of the benchmark: command line, clocks, order
   statistics, and the metric/result records every workload returns. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the measured window *)
  trace : bool;  (** per-layer run instead of the end-to-end one *)
}

let usage =
  "bench --workload (paper_grid|serve_open|exact_cells) --seed N --seconds S \
   --trace (0|1)"

let parse_args () =
  let workload = ref "" and seed = ref 2014 and seconds = ref 20.0 in
  let trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> failwith usage);
      go rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S; usage: %s" arg usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !seconds <= 0.0 then failwith "--seconds must be positive";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace }

(* Worker domains, generator connections and pool sizes all stay at or
   below the machine's recommended domain count. *)
let nproc = max 1 (Domain.recommended_domain_count ())

(* The clock Obs.Trace stamps its spans with, so benchmark-side and
   program-side spans share one timeline. *)
let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process (Linux VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* --- order statistics --- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The highest percentile up to the 95th that has at least ten samples
   beyond it (never below the median), and its value. *)
let tail_quantile xs =
  let q = Float.min 0.95 (Float.max 0.5 (1.0 -. (10.0 /. float_of_int (List.length xs)))) in
  (q, quantile xs q)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- results --- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_samples : int }

let metric ?(samples = 1) name unit value =
  { m_name = name; m_value = value; m_unit = unit; m_samples = samples }

(* What a workload run hands back to the driver: its metrics (the
   end-to-end set untraced, the per-layer set traced), the operation
   counts, and the digest of its simulated results. *)
type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  digest : string;  (** MD5 of the run's deterministic result *)
  notes : string list;  (** extra report lines *)
}

let md5 s = Digest.to_hex (Digest.string s)

(* Scratch space inside the checkout: spans, reports, sockets. *)
let out_dir = ".perfbench-out"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let out_path name =
  ensure_dir out_dir;
  Filename.concat out_dir name

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The program seed of repetition [r] of a run: repetitions draw fresh
   trials, so a run averages over several draws of the same kind. *)
let round_seed seed r = (seed * 1000) + r

(* A seeded stream for the benchmark's own draws (job mixes, check
   samples), kept apart from every stream the program derives from the
   same seed. *)
let bench_rng seed salt = Support.Rng.of_int ((seed * 7919) + salt)
