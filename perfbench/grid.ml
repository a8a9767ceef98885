(* paper_grid: the paper's experiment as it runs today — all six
   workloads x {LLFI, PINFI} x five categories x [trials] bit-flip
   trials — run through Engine.Scheduler.run on [nproc] worker domains,
   repeated with fresh trial seeds until the window is used up.

   A request is one round, the whole campaign, and a job is one of its
   cells: a cell's latency is the time from the start of its
   Scheduler.run to its last trial's verdict. *)

open Common

let trials = 50

(* Set-up timings per run; setup_s is their median. *)
let setup_reps = 11
let config seed = { Core.Campaign.default_config with Core.Campaign.trials; seed }

(* Filled from worker domains through [observe]: cell completions in
   every round, step counts in traced rounds. *)
type collector = {
  lock : Mutex.t;
  detailed : bool;  (** also sum per-trial step counts *)
  mutable done_at : (int * float) list;  (** (domain, time) per completed cell *)
  mutable n : int;
  mutable steps : int;
  mutable prefix : int;
}

let collector detailed =
  { lock = Mutex.create (); detailed; done_at = []; n = 0; steps = 0; prefix = 0 }

let observe c ~workload:_ ~tool:_ ~category:_ ~trial _verdict (st : Vm.Outcome.stats) =
  let last = trial = trials - 1 in
  if c.detailed || last then begin
    Mutex.lock c.lock;
    if c.detailed then begin
      c.n <- c.n + 1;
      c.steps <- c.steps + st.Vm.Outcome.steps;
      c.prefix <- c.prefix + max 0 st.Vm.Outcome.injected_step
    end;
    if last then c.done_at <- ((Domain.self () :> int), now ()) :: c.done_at;
    Mutex.unlock c.lock
  end

type round = {
  seed : int;
  cells : Core.Campaign.cell list;
  csv : string;
  wall : float;
  cpu : float;
  trials_run : int;
  cell_latency : float list;  (** per cell: start of the run -> last verdict *)
  straggler : float;  (** first worker idle -> end of run *)
}

let run_round ?(collector = collector false) seed =
  let cpu0 = cpu_seconds () in
  let t0 = now () in
  let res =
    Span.with_ ~layer:"engine" "engine.run" (fun () ->
        Engine.Scheduler.run ~jobs:nproc ~observe:(observe collector) (config seed)
          Workloads.all)
  in
  let t1 = now () in
  let cells = res.Engine.Scheduler.cells in
  let c = collector in
  let domains = List.sort_uniq compare (List.map fst c.done_at) in
  let last d = List.fold_left (fun m (d', t) -> if d' = d then max m t else m) t0 c.done_at in
  let straggler = t1 -. List.fold_left (fun m d -> min m (last d)) t1 domains in
  {
    seed;
    cells;
    csv = Core.Campaign.to_csv cells;
    wall = t1 -. t0;
    cpu = cpu_seconds () -. cpu0;
    trials_run =
      List.fold_left (fun a (x : Core.Campaign.cell) -> a + x.c_tally.Core.Verdict.trials) 0 cells;
    cell_latency = List.map (fun (_, t) -> t -. t0) c.done_at;
    straggler;
  }

(* Rounds until [seconds] have passed (at least one).  Each starts from
   a collected heap, as a fresh campaign process would. *)
let rounds ~seconds seed =
  let t_end = now () +. seconds in
  let rec go r acc =
    Gc.full_major ();
    let acc = run_round (round_seed seed r) :: acc in
    if now () >= t_end then List.rev acc else go (r + 1) acc
  in
  go 0 []

(* Totals over rounds: trials, cells and wall-clock. *)
let total f rs = List.fold_left (fun a r -> a +. f r) 0.0 rs
let rate rs = total (fun r -> float_of_int r.trials_run) rs /. total (fun r -> r.wall) rs

(* Output check, outside the timed rounds: a seeded sample of cells,
   drawn from every round, re-run on the reference path (tree-walking
   interpreters, no snapshots) must reproduce the grid's tallies. *)
let sample_cells = 2

let check seed (rs : round list) =
  Span.with_ ~layer:"check" "check.grid" @@ fun () ->
  let candidates =
    Array.of_list
      (List.concat_map
         (fun r ->
           List.filter_map
             (fun (c : Core.Campaign.cell) -> if c.c_population > 0 then Some (r.seed, c) else None)
             r.cells)
         rs)
  in
  Support.Rng.shuffle (bench_rng seed 1) candidates;
  let picked = Array.to_list (Array.sub candidates 0 sample_cells) in
  let mismatched =
    List.filter
      (fun (seed, (c : Core.Campaign.cell)) ->
        let cfg = { (config seed) with Core.Campaign.compile = false; snapshot = false } in
        let p = Core.Campaign.prepare cfg (Workloads.find_exn c.c_workload) in
        let r = Core.Campaign.run_cell cfg p c.c_tool c.c_category in
        r.c_population <> c.c_population || r.c_tally <> c.c_tally)
      picked
  in
  List.iter
    (fun (_, (c : Core.Campaign.cell)) ->
      log "paper_grid: reference re-run of %s/%s/%s differs" c.c_workload
        (Core.Campaign.tool_name c.c_tool) (Core.Category.name c.c_category))
    mismatched;
  (List.length picked, List.length mismatched)

let end_to_end (args : args) =
  let setup =
    Setup.timed ~reps:setup_reps (fun () -> Setup.prepare (config args.seed) Workloads.all)
  in
  let rs = rounds ~seconds:args.seconds args.seed in
  let rss = peak_rss_mb () in
  let checked, failed = check args.seed rs in
  let latency_ms = List.concat_map (fun r -> List.map (fun t -> 1000.0 *. t) r.cell_latency) rs in
  let q, tail = tail_quantile latency_ms in
  let n = List.length rs and n_cells = List.length latency_ms in
  let cells_per_s =
    total (fun r -> float_of_int (List.length r.cells)) rs /. total (fun r -> r.wall) rs
  in
  {
    metrics =
      [
        metric ~samples:n "grid_trials_per_s" "trials/s" (rate rs);
        metric ~samples:n_cells "serve_p50_ms" "ms" (median latency_ms);
        metric ~samples:n_cells "serve_p95_ms" "ms" tail;
        metric ~samples:n "serve_jobs_per_s" "jobs/s" cells_per_s;
        metric ~samples:n "exact_faults_per_s" "faults/s" (rate rs);
        metric ~samples:setup_reps "setup_s" "s" (median setup);
        metric "peak_rss_mb" "MB" rss;
      ];
    attempted = (n * List.length (List.hd rs).cells) + checked;
    failed;
    digest = md5 (List.hd rs).csv;
    notes =
      [
        Printf.sprintf "%d round(s) of %d cells x %d trials on %d domain(s)" n
          (List.length (List.hd rs).cells) trials nproc;
        Printf.sprintf "serve_p95_ms is the p%.0f of %d cell latencies" (100.0 *. q) n_cells;
      ];
  }

(* Traced run: half the window untraced (the overhead baseline and the
   timing-based engine metrics), then the traced half: the compile
   layers, preparation, and rounds with the program's spans and
   counters on. *)
let per_layer (args : args) =
  let base =
    Span.untraced (fun () ->
        ignore (Setup.prepare (config args.seed) Workloads.all);
        rounds ~seconds:(args.seconds /. 2.0) args.seed)
  in
  Span.traced @@ fun () ->
  Setup.compile_layers ();
  ignore (Setup.prepare (config args.seed) Workloads.all);
  Obs.Metrics.enable ();
  let traced = ref [] and steps = ref (0, 0, 0) in
  let t_end = now () +. (args.seconds /. 2.0) in
  while !traced = [] || now () < t_end do
    Gc.full_major ();
    Obs.Trace.enable ();
    let c = collector true in
    let r = run_round ~collector:c (round_seed args.seed (List.length !traced)) in
    Span.import_trace ();
    traced := r :: !traced;
    let n, s, p = !steps in
    steps := (n + c.n, s + c.steps, p + c.prefix)
  done;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let checked, failed = check args.seed (base @ !traced) in
  let nt = float_of_int (List.length !traced) in
  let n, s, p = !steps in
  let per_trial x = ratio (float_of_int x) (float_of_int n) in
  let tasks tool = List.filter (fun sp -> Span.arg sp "tool" = tool) (Span.named "task") in
  let trial_us tool =
    let ts = tasks tool in
    let count = List.fold_left (fun a sp -> a + int_of_string (Span.arg sp "count")) 0 ts in
    1e6 *. ratio (Span.total_s ts) (float_of_int count)
  in
  let metrics =
    Setup.layer_metrics ()
    @ [
        ("core.record_rejoin_ms", Setup.ms (Span.named "record-rejoin") /. nt);
        ( "core.runner_build_us",
          1e6 *. ratio (Span.total_s (Span.named "runner-build"))
                   (float_of_int (List.length (Span.named "runner-build"))) );
        ("core.llfi_trial_us", trial_us "LLFI");
        ("core.pinfi_trial_us", trial_us "PINFI");
        ("vm.steps_per_trial", per_trial s);
        ("vm.ff_prefix_steps_per_trial", per_trial p);
        ("vm.suffix_steps_per_trial", per_trial (s - p));
        ("vm.ir.ff_rebuilds", Layers.counter snap "vm.ir.ff_rebuilds" /. nt);
        ("vm.x86.ff_rebuilds", Layers.counter snap "vm.x86.ff_rebuilds" /. nt);
        ("vm.logical_msteps_per_s", per_trial s *. rate base /. 1e6);
        ( "engine.core_utilisation",
          ratio (total (fun r -> r.cpu) base) (total (fun r -> r.wall) base *. float_of_int nproc) );
        ("engine.straggler_s", mean (List.map (fun r -> r.straggler) base));
        ("engine.runner_cache_hit_ratio", Layers.hit_ratio snap "engine.runner_cache");
        ("obs.trace_overhead_share", ratio (rate base) (rate !traced) -. 1.0);
      ]
  in
  {
    metrics = Layers.metrics metrics;
    attempted = (List.length (base @ !traced) * List.length (List.hd base).cells) + checked;
    failed;
    digest = md5 (List.hd base).csv;
    notes = [];
  }
