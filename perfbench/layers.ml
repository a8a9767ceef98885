(* The metric catalogue: every end-to-end and per-layer metric, its unit,
   and (per-layer) the layer it belongs to and the end-to-end metric it
   is expected to move.  BENCHMARK.json lists the same names; a workload
   reports the subset it measures and the rest read 0 (layer idle). *)

let end_to_end =
  [
    ("grid_trials_per_s", "trials/s");
    ("serve_p50_ms", "ms");
    ("serve_p95_ms", "ms");
    ("serve_jobs_per_s", "jobs/s");
    ("exact_faults_per_s", "faults/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Layers in report order; [check] is the benchmark's own output
   verification, kept apart so it does not pollute [core]. *)
let layers =
  [ "minic"; "opt"; "backend"; "core"; "vm"; "engine"; "serve"; "exhaust"; "check"; "obs" ]

(* name, unit, moves *)
let per_layer =
  [
    ("minic.compile_ms", "ms", "setup_s (all workloads)");
    ("opt.optimize_ms", "ms", "setup_s (all workloads)");
    ("backend.compile_ms", "ms", "setup_s (all workloads)");
    ("core.prepare_ms", "ms", "setup_s (all workloads)");
    ("core.record_rejoin_ms", "ms", "grid_trials_per_s (paper_grid), setup_s (serve_open)");
    ("core.runner_build_us", "us", "serve_p50_ms (serve_open); ~none on paper_grid");
    ("core.llfi_trial_us", "us", "grid_trials_per_s (paper_grid); less on serve_open");
    ("core.pinfi_trial_us", "us", "grid_trials_per_s (paper_grid); less on serve_open");
    ("vm.steps_per_trial", "count", "none: changes only with semantics");
    ("vm.ff_prefix_steps_per_trial", "count", "none: changes only with semantics");
    ("vm.suffix_steps_per_trial", "count", "none: changes only with semantics");
    ("vm.ir.ff_rebuilds", "count", "none: changes only with semantics");
    ("vm.x86.ff_rebuilds", "count", "none: changes only with semantics");
    ("vm.logical_msteps_per_s", "Msteps/s", "grid_trials_per_s (paper_grid)");
    ("engine.core_utilisation", "ratio", "grid_trials_per_s (paper_grid)");
    ("engine.straggler_s", "s", "grid_trials_per_s (paper_grid)");
    ("engine.runner_cache_hit_ratio", "ratio", "grid_trials_per_s (paper_grid)");
    ("serve.admit_ms", "ms", "serve_p50_ms, serve_p95_ms (serve_open)");
    ("serve.queue_ms", "ms", "serve_p50_ms, serve_p95_ms (serve_open)");
    ("serve.stream_ms", "ms", "serve_p50_ms, serve_p95_ms (serve_open)");
    ("serve.fresh_p50_ms", "ms", "serve_p50_ms (serve_open)");
    ("serve.repeat_p50_ms", "ms", "serve_p50_ms (serve_open)");
    ("serve.batches_per_job", "count", "serve_p50_ms (serve_open)");
    ("serve.wire_bytes_per_job", "bytes", "serve_p50_ms (serve_open)");
    ("serve.client_decode_us_per_frame", "us", "serve_p50_ms (serve_open)");
    ("serve.cells_shared", "count", "serve_p50_ms (serve_open)");
    ("serve.prepared_cache_hit_ratio", "ratio", "serve_p50_ms (serve_open)");
    ("serve.runner_cache_hit_ratio", "ratio", "serve_p50_ms (serve_open)");
    ("serve.shard_p50_ms", "ms", "serve_p50_ms (serve_open)");
    ("serve.journal_flushes", "count", "serve_p50_ms (serve_open)");
    ("serve.generator_lag_ms", "ms", "none: must stay near 0 (honest open loop)");
    ("serve.backlog_jobs", "count", "none: must stay near 0 (rate below capacity)");
    ("exhaust.enumerate_ms", "ms", "exact_faults_per_s (exact_cells)");
    ("exhaust.fate_ns_per_fault", "ns", "exact_faults_per_s (exact_cells)");
    ("exhaust.settled_share", "ratio", "exact_faults_per_s (exact_cells)");
    ("exhaust.executed", "count", "exact_faults_per_s (exact_cells)");
    ("exhaust.execute_us_per_fault", "us", "exact_faults_per_s (exact_cells)");
    ("obs.trace_overhead_share", "ratio", "none: cost of the traced run itself");
    ("obs.span_coverage", "ratio", "none: share of wall-clock the layer spans explain");
  ]
  @ List.map
      (fun l -> (l ^ ".self_s", "s", "the end-to-end metrics of the layer's rows"))
      layers

(* Per-layer readings as metric records, with the catalogue's units. *)
let metrics readings =
  List.map
    (fun (name, value) ->
      match List.find_opt (fun (n, _, _) -> n = name) per_layer with
      | Some (_, unit, _) -> Common.metric name unit value
      | None -> invalid_arg ("Layers.metrics: unknown metric " ^ name))
    readings

(* Counter / histogram readings from the program's Obs.Metrics registry. *)
let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Count n) -> float_of_int n
  | Some (Obs.Metrics.Histo { count; _ }) -> float_of_int count
  | None -> 0.0

let hit_ratio snap prefix =
  let hits = counter snap (prefix ^ ".hits") in
  Common.ratio hits (hits +. counter snap (prefix ^ ".misses"))
