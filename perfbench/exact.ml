(* exact_cells: Exhaust.run with pruning on and a sample bound over a
   small grid (two workloads, both tools, two categories: arithmetic,
   where the pruning rules settle the most, and cmp, where execution
   dominates), repeated with fresh sampler seeds until the window is
   used up.  It runs the vm in its other mode — an enumerating profile
   run, then forced-bit trials without rejoin — and is the only
   workload where Exhaust.fate pruning does any work.

   A request is one Exhaust.run over the grid, and a job is one of its
   exact cells: a cell's latency is the time from the start of its
   Exhaust.run to its delivery through [on_cell]. *)

open Common

let workloads = [ Workloads.mcf; Workloads.libquantum ]
let categories = Core.Category.[ Arithmetic; Cmp ]
let sample_bound = 100

(* Set-up timings per run; setup_s is their median. *)
let setup_reps = 21

let config seed = { Exhaust.prune = true; sample_bound; seed }
let campaign = Core.Campaign.default_config

type run = {
  cells : Core.Campaign.exact_cell list;
  csv : string;
  wall : float;
  cpu : float;
  cell_latency : float list;
}

let run_once seed =
  let cpu0 = cpu_seconds () in
  let t0 = now () in
  let lock = Mutex.create () and delivered = ref [] in
  let on_cell _ = Mutex.protect lock (fun () -> delivered := (now () -. t0) :: !delivered) in
  let res =
    Span.with_ ~layer:"exhaust" "exhaust.run" (fun () ->
        Exhaust.run ~jobs:nproc ~categories ~on_cell (config seed) campaign workloads)
  in
  let wall = now () -. t0 in
  let cells = res.Exhaust.cells in
  {
    cells;
    csv = Core.Campaign.exact_to_csv cells;
    wall;
    cpu = cpu_seconds () -. cpu0;
    cell_latency = !delivered;
  }

let runs ~seconds seed =
  let t_end = now () +. seconds in
  let rec go r acc =
    Gc.full_major ();
    let acc = run_once (round_seed seed r) :: acc in
    if now () >= t_end then List.rev acc else go (r + 1) acc
  in
  go 0 []

let sum f cells = List.fold_left (fun a c -> a + f c) 0 cells
let enumerated r = sum (fun (c : Core.Campaign.exact_cell) -> c.e_enumerated) r.cells
let executed r = sum (fun (c : Core.Campaign.exact_cell) -> c.e_executed) r.cells

(* [f] per second over all repetitions. *)
let per_s f rs =
  float_of_int (List.fold_left (fun a r -> a + f r) 0 rs)
  /. List.fold_left (fun a r -> a +. r.wall) 0.0 rs

(* The part of a cell the sampler seed cannot change. *)
let space (c : Core.Campaign.exact_cell) =
  (c.e_population, c.e_enumerated, c.e_pruned_dead, c.e_pruned_masked, c.e_pruned_equiv)

(* Output checks: every repetition must enumerate and prune exactly as
   the first did, and one cell small enough to brute-force — the All
   cell of a seeded generated program — must give the same space and
   weighted tally with pruning off as with it on. *)
let check seed (rs : run list) =
  Span.with_ ~layer:"check" "check.exact" @@ fun () ->
  let first = List.map space (List.hd rs).cells in
  let drift = List.length (List.filter (fun r -> List.map space r.cells <> first) rs) in
  let rng = bench_rng seed 4 in
  let tiny =
    {
      Core.Workload.name = "tiny";
      suite = "perfbench";
      description = "generated program for the brute-force check";
      paper_counterpart = "(none)";
      source = Fuzz.Gen.source ~seed:(Support.Rng.int rng 1_000_000) ~size:5 ();
      inputs = [||];
      input_name = "none";
    }
  in
  let tool = if Support.Rng.bool rng then Core.Campaign.Llfi_tool else Core.Campaign.Pinfi_tool in
  let p = Core.Campaign.prepare campaign tiny in
  let exact prune =
    Exhaust.run_cell { (config seed) with Exhaust.prune; sample_bound = 0 } p tool
      Core.Category.All
  in
  let pruned = exact true and brute = exact false in
  let differs =
    pruned.e_enumerated <> brute.e_enumerated || pruned.e_tally <> brute.e_tally
  in
  if differs then log "exact_cells: pruned tally differs from brute force";
  if drift > 0 then log "exact_cells: %d repetition(s) differ from the first" drift;
  (1, drift + Bool.to_int differs)

let end_to_end (args : args) =
  let setup = Setup.timed ~reps:setup_reps (fun () -> Setup.prepare campaign workloads) in
  let rs = runs ~seconds:args.seconds args.seed in
  let rss = peak_rss_mb () in
  let checked, failed = check args.seed rs in
  let n = List.length rs in
  let latency_ms = List.concat_map (fun r -> List.map (fun t -> 1000.0 *. t) r.cell_latency) rs in
  let q, tail = tail_quantile latency_ms in
  let n_cells = List.length latency_ms in
  {
    metrics =
      [
        metric ~samples:n "grid_trials_per_s" "trials/s" (per_s executed rs);
        metric ~samples:n_cells "serve_p50_ms" "ms" (median latency_ms);
        metric ~samples:n_cells "serve_p95_ms" "ms" tail;
        metric ~samples:n "serve_jobs_per_s" "jobs/s" (per_s (fun r -> List.length r.cells) rs);
        metric ~samples:n "exact_faults_per_s" "faults/s" (per_s enumerated rs);
        metric ~samples:setup_reps "setup_s" "s" (median setup);
        metric "peak_rss_mb" "MB" rss;
      ];
    attempted = (n * List.length (List.hd rs).cells) + checked;
    failed;
    digest = md5 (List.hd rs).csv;
    notes =
      [
        Printf.sprintf "%d run(s) of %d exact cells, sample bound %d, on %d domain(s)" n
          (List.length (List.hd rs).cells) sample_bound nproc;
        Printf.sprintf "serve_p95_ms is the p%.0f of %d cell latencies" (100.0 *. q) n_cells;
      ];
  }

(* Traced run: half the window untraced (overhead baseline), then the
   traced half: the compile layers, preparation, runs with spans and
   counters on, and bench-side timings of the pruning rule and of runner
   construction over the same cells. *)
let per_layer (args : args) =
  let half = args.seconds /. 2.0 in
  let base = Span.untraced (fun () -> runs ~seconds:half args.seed) in
  Span.traced @@ fun () ->
  Setup.compile_layers ();
  let prepared = Setup.prepare campaign workloads in
  Obs.Metrics.enable ();
  let traced = ref [] in
  let t_end = now () +. half in
  while !traced = [] || now () < t_end do
    Gc.full_major ();
    Obs.Trace.enable ();
    traced := run_once (round_seed args.seed (List.length !traced)) :: !traced;
    Span.import_trace ()
  done;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let grid =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun tool -> List.map (fun c -> (p, tool, c)) categories)
          [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
      prepared
  in
  let fate_s = ref 0.0 and faults = ref 0 in
  List.iter
    (fun (p, tool, category) ->
      let instances =
        Span.with_ ~layer:"core" "core.enumerate" (fun () ->
            Core.Campaign.enumerate p tool category)
      in
      let (), dt =
        time (fun () ->
            Span.with_ ~layer:"exhaust" "exhaust.fate" (fun () ->
                Array.iter
                  (fun (i : Vm.Fault_space.instance) ->
                    for bit = 0 to i.width - 1 do
                      ignore (Sys.opaque_identity (Exhaust.fate tool i ~bit))
                    done;
                    faults := !faults + i.width)
                  instances))
      in
      fate_s := !fate_s +. dt)
    grid;
  let builds =
    List.map
      (fun (p, tool, category) ->
        snd
          (time (fun () ->
               Span.with_ ~layer:"core" "core.runner" (fun () ->
                   Core.Campaign.runner p tool category))))
      grid
  in
  let checked, failed = check args.seed (base @ !traced) in
  let nt = float_of_int (List.length !traced) in
  let r0 = List.hd base in
  let settled =
    sum
      (fun (c : Core.Campaign.exact_cell) -> c.e_pruned_dead + c.e_pruned_masked + c.e_pruned_equiv)
      r0.cells
  in
  let execute_s tool =
    Span.total_s
      (List.concat_map
         (fun s -> List.filter (fun c -> c.Span.name = "execute") (Span.children_of s))
         (List.filter (fun s -> Span.arg s "tool" = tool) (Span.named "exhaust-cell")))
  in
  let executed_by tool =
    float_of_int
      (List.fold_left
         (fun a r ->
           a
           + sum
               (fun (c : Core.Campaign.exact_cell) ->
                 if Core.Campaign.tool_name c.e_tool = tool then c.e_executed else 0)
               r.cells)
         0 !traced)
  in
  let executed_traced = executed_by "LLFI" +. executed_by "PINFI" in
  let metrics =
    Setup.layer_metrics ()
    @ [
        ("core.runner_build_us", 1e6 *. median builds);
        ("core.llfi_trial_us", 1e6 *. ratio (execute_s "LLFI") (executed_by "LLFI"));
        ("core.pinfi_trial_us", 1e6 *. ratio (execute_s "PINFI") (executed_by "PINFI"));
        ("vm.ir.ff_rebuilds", Layers.counter snap "vm.ir.ff_rebuilds" /. nt);
        ("vm.x86.ff_rebuilds", Layers.counter snap "vm.x86.ff_rebuilds" /. nt);
        ( "engine.core_utilisation",
          ratio
            (List.fold_left (fun a r -> a +. r.cpu) 0.0 base)
            (List.fold_left (fun a r -> a +. r.wall) 0.0 base *. float_of_int nproc) );
        ("exhaust.enumerate_ms", Setup.ms (Span.named "enumerate") /. nt);
        ("exhaust.fate_ns_per_fault", 1e9 *. ratio !fate_s (float_of_int !faults));
        ("exhaust.settled_share", ratio (float_of_int settled) (float_of_int (enumerated r0)));
        ("exhaust.executed", executed_traced /. nt);
        ( "exhaust.execute_us_per_fault",
          1e6 *. ratio (Span.total_s (Span.named "execute")) executed_traced );
        ( "obs.trace_overhead_share",
          ratio (per_s enumerated base) (per_s enumerated !traced) -. 1.0 );
      ]
  in
  {
    metrics = Layers.metrics metrics;
    attempted = (List.length (base @ !traced) * List.length r0.cells) + checked;
    failed;
    digest = md5 r0.csv;
    notes = [];
  }
