(* serve_open: an in-process campaign service (Serve.Server.run, with a
   joblog) driven by an open-loop generator at one fixed arrival rate.

   Each job is one seeded draw — a workload of the six, both tools, a
   category of the five, [trials_per_job] trials — and one job in
   [repeat_every] repeats an earlier spec exactly, seed included, so
   the cell-cache read path runs beside the execute path.

   The generator is this one thread: job [i] is due at [t0 + i / rate]
   and is submitted on connection [i mod nproc] as soon as the loop
   sees it due, whatever is still outstanding (Submits pipeline on a
   connection).  Latency runs from the due time, so a stall in the
   service or the generator is charged to every job it delays; the
   generator's own lateness is reported apart. *)

open Common

(* Trials per job, per tool.  With one worker, Plan.default_chunk makes
   each cell of such a job one 5-trial shard: the shard size of
   scripts/loadtest.sh's defaults (TRIALS=10 over POOL=2).  At this size
   a shard's fixed costs (runner, fast-forward from step 0, framing,
   journal) are about 40% of a fresh job's service time; README.md
   records the measurements at 4, 10 and 20 trials. *)
let trials_per_job = 5

(* One worker domain.  With two, the four domains of this process (two
   workers, the server loop, the generator) contend for 2 cores, and
   repeated runs of the same seed differed by 2x in p95; with one, the
   loop and the generator keep a core between them and runs agree to
   about 5%.  Sharding follows the pool: one shard per cell.

   Fixed arrival rate (jobs/s).  One worker completes 35-45 jobs
   per second of busy time on this mix (serve_jobs_per_s, 2-core
   reference VM), and the open loop keeps the service busy about 30% of
   the time.  The rate sits well below capacity because queueing
   amplifies the host's speed swings into latency: with 4-trial jobs,
   over ten seeds, p50 spread 27% at 20 jobs/s against 13% at
   10 jobs/s.  A 20 s sub-window then holds the 200 jobs a p95 needs. *)
let workers = 1
let rate = 10.0

(* Jobs still outstanding this long after the last due time count as
   failed. *)
let drain_limit = 30.0

(* Server starts per run; setup_s is their median.  The first one
   serves the window. *)
let setup_reps = 7

type job = {
  spec : Serve.Wire.job;
  repeat_of : int option;
  due : float;
  mutable sent : float;
  mutable acked : float;
  mutable first_batch : float;
  mutable finished : float;
  mutable batches : Serve.Wire.batch list;
  mutable bytes : int;
  mutable csv : string;
  mutable digest : string;
  mutable state : [ `Waiting | `Sent | `Done | `Failed | `Refused ];
}

let workloads = Array.of_list Workloads.all
let categories = Array.of_list Core.Category.all
let tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]

let wire_job ~workload ~categories ~trials ~seed =
  {
    Serve.Wire.j_workload = workload;
    j_tools = tools;
    j_categories = categories;
    j_model = Core.Fault_model.Bitflip;
    j_trials = trials;
    j_seed = seed;
    j_out = None;
  }

(* The job mix, a pure function of the seed.  Stratified so that every
   seed has the same composition: every [repeat_every]-th job repeats a
   seeded earlier one, and the fresh jobs walk seeded permutations of
   the 30 (workload, category) pairs, each block covering every pair
   once.  What the seed varies is the order, the repeated jobs and the
   job seeds (from 1000, clear of the warm-up jobs' seed 0).

   Repeats finish in about 0.5 ms, so with a repeat share s the
   all-jobs median is the (0.5 - s) / (1 - s) quantile of fresh-job
   latency.  The repository gives no share; one in ten keeps
   serve_p50_ms within 10% of the fresh-job median (measured with
   10-trial jobs: 33.5 ms against 36.6 ms with no repeats; 26.2 ms at
   one in four; 0.5 ms at one in two, where the median falls onto the
   cache path). *)
let repeat_every = 10

let pairs =
  Array.concat
    (List.map (fun (w : Core.Workload.t) -> Array.map (fun c -> (w, c)) categories) Workloads.all)

(* The fewest leading jobs of a mix that hold [k] fresh ones. *)
let jobs_for_fresh k =
  let rec go n = if n - (n / repeat_every) >= k then n else go (n + 1) in
  go k

let specs seed n =
  let rng = bench_rng seed 2 in
  let block = ref [||] and taken = ref 0 in
  let next_pair () =
    if !taken = Array.length !block then begin
      block := Array.copy pairs;
      Support.Rng.shuffle rng !block;
      taken := 0
    end;
    incr taken;
    !block.(!taken - 1)
  in
  let out = Array.make n (wire_job ~workload:"" ~categories:[] ~trials:0 ~seed:0, None) in
  for i = 0 to n - 1 do
    if i mod repeat_every = repeat_every - 1 then begin
      let j = Support.Rng.int rng i in
      let spec, orig = out.(j) in
      out.(i) <- (spec, Some (Option.value orig ~default:j))
    end
    else
      let (w : Core.Workload.t), c = next_pair () in
      out.(i) <-
        ( wire_job ~workload:w.name ~categories:[ c ] ~trials:trials_per_job
            ~seed:(1000 + Support.Rng.int rng 1_000_000),
          None )
  done;
  out

(* --- the service --- *)

type server = { domain : Serve.Server.stats Domain.t; socket : string }

let tmp_dir () =
  let d = out_path (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  ensure_dir d;
  d

let start dir k =
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" k) in
  let journal = Filename.concat dir (Printf.sprintf "joblog%d" k) in
  if Sys.file_exists journal then Sys.remove journal;
  let cfg =
    {
      (Serve.Server.default ~socket) with
      Serve.Server.pool_size = workers;
      journal = Some journal;
      name = "perfbench";
    }
  in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Serve.Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.001
  done;
  { domain; socket }

(* Fill the prepared cache: one small job per workload, all pipelined
   on one connection. *)
let warm_up srv =
  let c = Serve.Client.connect (Serve.Client.Unix_sock srv.socket) in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      Array.iter
        (fun (w : Core.Workload.t) ->
          Serve.Client.send c
            (Serve.Wire.Submit
               (wire_job ~workload:w.Core.Workload.name
                  ~categories:[ Core.Category.All ] ~trials:1 ~seed:0)))
        workloads;
      let rec await left =
        if left > 0 then
          match Serve.Client.recv c with
          | Serve.Wire.Job_done _ -> await (left - 1)
          | Serve.Wire.Error { message; _ } -> failwith ("serve_open warm-up: " ^ message)
          | _ -> await left
      in
      await (Array.length workloads))

let stop srv =
  let c = Serve.Client.connect (Serve.Client.Unix_sock srv.socket) in
  Serve.Client.shutdown c ~drain:true;
  Serve.Client.close c;
  ignore (Domain.join srv.domain)

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Server start plus warm-up, the time before the first job can run. *)
let setup dir k =
  Span.with_ ~layer:"serve" "serve.setup" (fun () ->
      let srv = start dir k in
      warm_up srv;
      srv)

(* --- the open-loop generator --- *)

type conn = {
  index : int;
  fd : Unix.file_descr;
  mutable rbuf : string;
  mutable wbuf : string;
  awaiting_ack : int Queue.t;  (** job indices, in submission order *)
  mutable dead : bool;
}

type window = {
  jobs : job array;
  warm : int;  (** leading warm-in jobs, outside every statistic *)
  backlog : int;  (** outstanding when the last job was submitted *)
  frames : int;
  decode_s : float;
  wall : float;  (** from the start of the drive to its last event *)
  cpu : float;  (** process CPU seconds over [wall]: every domain *)
}

let drive ~timed_decode srv specs t0 =
  let start = now () and cpu0 = cpu_seconds () in
  let n = Array.length specs in
  let jobs =
    Array.mapi
      (fun i (spec, repeat_of) ->
        {
          spec;
          repeat_of;
          due = t0 +. (float_of_int i /. rate);
          sent = 0.0;
          acked = 0.0;
          first_batch = 0.0;
          finished = 0.0;
          batches = [];
          bytes = 0;
          csv = "";
          digest = "";
          state = `Waiting;
        })
      specs
  in
  let conns =
    Array.init nproc (fun index ->
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX srv.socket);
        Unix.set_nonblock fd;
        { index; fd; rbuf = ""; wbuf = ""; awaiting_ack = Queue.create (); dead = false })
  in
  let by_id = Hashtbl.create 1024 in
  let next = ref 0 and outstanding = ref 0 and backlog = ref 0 in
  let frames = ref 0 and decode_s = ref 0.0 in
  let settle j state =
    if j.state = `Sent then begin
      j.state <- state;
      decr outstanding
    end
  in
  let kill c =
    if not c.dead then begin
      c.dead <- true;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Array.iteri (fun i j -> if i mod nproc = c.index then settle j `Failed) jobs
    end
  in
  let handle c msg size =
    let t = now () in
    match msg with
    | Serve.Wire.Ack { job = id } ->
      let j = jobs.(Queue.pop c.awaiting_ack) in
      Hashtbl.replace by_id id j;
      j.acked <- t;
      j.bytes <- j.bytes + size
    | Serve.Wire.Error { job = None; message } ->
      log "serve_open: job refused: %s" message;
      settle jobs.(Queue.pop c.awaiting_ack) `Refused
    | Serve.Wire.Error { job = Some id; message } ->
      log "serve_open: job failed: %s" message;
      Option.iter (fun j -> settle j `Failed) (Hashtbl.find_opt by_id id)
    | Serve.Wire.Batch b ->
      let j = Hashtbl.find by_id b.Serve.Wire.b_job in
      if j.first_batch = 0.0 then j.first_batch <- t;
      j.batches <- b :: j.batches;
      j.bytes <- j.bytes + size
    | Serve.Wire.Job_done { job = id; csv; digest } ->
      let j = Hashtbl.find by_id id in
      j.finished <- t;
      j.csv <- csv;
      j.digest <- digest;
      j.bytes <- j.bytes + size;
      settle j `Done
    | Serve.Wire.Bye -> kill c
    | Serve.Wire.Welcome _ | Serve.Wire.Pong -> ()
  in
  let rec parse c =
    if not c.dead then begin
      let t = if timed_decode then now () else 0.0 in
      match Serve.Wire.decode_server c.rbuf with
      | Serve.Wire.Need_more -> ()
      | Serve.Wire.Bad m ->
        log "serve_open: bad frame: %s" m;
        kill c
      | Serve.Wire.Got (msg, size) ->
        if timed_decode then decode_s := !decode_s +. (now () -. t);
        incr frames;
        c.rbuf <- String.sub c.rbuf size (String.length c.rbuf - size);
        handle c msg size;
        parse c
    end
  in
  let buf = Bytes.create 65536 in
  let pump_in c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> kill c
    | k ->
      c.rbuf <- c.rbuf ^ Bytes.sub_string buf 0 k;
      parse c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> kill c
  in
  let pump_out c =
    if c.wbuf <> "" && not c.dead then
      match Unix.write_substring c.fd c.wbuf 0 (String.length c.wbuf) with
      | k -> c.wbuf <- String.sub c.wbuf k (String.length c.wbuf - k)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> kill c
  in
  let deadline = t0 +. (float_of_int n /. rate) +. drain_limit in
  let alive () = Array.exists (fun c -> not c.dead) conns in
  while (!next < n || !outstanding > 0) && now () < deadline && alive () do
    let t = now () in
    while !next < n && jobs.(!next).due <= t do
      let j = jobs.(!next) and c = conns.(!next mod nproc) in
      if c.dead then j.state <- `Failed
      else begin
        c.wbuf <- c.wbuf ^ Serve.Wire.encode_client (Serve.Wire.Submit j.spec);
        Queue.push !next c.awaiting_ack;
        j.sent <- t;
        j.state <- `Sent;
        if !next = n - 1 then backlog := !outstanding;
        incr outstanding;
        pump_out c
      end;
      incr next
    done;
    let timeout = if !next < n then max 0.0 (jobs.(!next).due -. now ()) else 0.05 in
    let live = List.filter (fun c -> not c.dead) (Array.to_list conns) in
    let rfds = List.map (fun c -> c.fd) live in
    let wfds = List.filter_map (fun c -> if c.wbuf <> "" then Some c.fd else None) live in
    match Unix.select rfds wfds [] timeout with
    | readable, writable, _ ->
      List.iter (fun c -> if List.mem c.fd writable then pump_out c) live;
      List.iter (fun c -> if List.mem c.fd readable then pump_in c) live
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  Array.iter
    (fun j -> if j.state = `Sent || j.state = `Waiting then j.state <- `Failed)
    jobs;
  let wall = now () -. start and cpu = cpu_seconds () -. cpu0 in
  Array.iter (fun c -> if not c.dead then (try Unix.close c.fd with Unix.Unix_error _ -> ())) conns;
  { jobs; warm = 0; backlog = !backlog; frames = !frames; decode_s = !decode_s; wall; cpu }

(* The first [warm_jobs] jobs of traffic (3.3 s) hold one block of
   fresh jobs, every (workload, category) pair once: they fill the
   per-domain runner caches and rolling fast-forward machines, as in a
   service that has been up for a while.  They run and are checked like
   every other job but stay out of the statistics, and the measured
   jobs start on a block boundary, so every seed measures the same
   composition (at 20 s: six whole blocks). *)
let warm_jobs = jobs_for_fresh (Array.length pairs)

(* One window: warm-in plus [seconds] of schedule, driven inside a
   span, with each measured job's phases recorded as spans for the
   traced run. *)
let window ?(timed_decode = false) srv seed seconds =
  let warm = warm_jobs in
  let n = warm + max 1 (int_of_float (Float.round (rate *. seconds))) in
  let specs = specs seed n in
  Span.with_ ~layer:"serve" "serve.window" @@ fun () ->
  let w = { (drive ~timed_decode srv specs (now () +. 0.01)) with warm } in
  if !Span.on then
    Array.iteri
      (fun i j ->
        if j.state = `Done && i >= warm then begin
          let ns x = Int64.of_float (x *. 1e9) in
          let args = [ ("job", string_of_int i) ] in
          let id = Span.record ~args ~layer:"serve" "serve.job" ~start:(ns j.due) ~stop:(ns j.finished) in
          let phase name a b =
            ignore (Span.record ~args ~parent:id ~layer:"serve" name ~start:(ns a) ~stop:(ns b))
          in
          phase "serve.lag" j.due j.sent;
          phase "serve.admit" j.sent j.acked;
          phase "serve.queue" j.acked j.first_batch;
          phase "serve.stream" j.first_batch j.finished
        end)
      w.jobs;
  w

(* --- output checks --- *)

(* The client-side stream check, as strong as Serve.Client's: per cell,
   the batches must tile the trial range exactly, agree on the
   population, carry the job's fault model, and merge into the cells of
   the reported CSV, whose digest must match. *)
let reassembles j =
  let job = j.spec in
  let cell (tool, category) =
    let mine =
      List.sort
        (fun (a : Serve.Wire.batch) b -> compare a.b_first b.b_first)
        (List.filter
           (fun (b : Serve.Wire.batch) -> b.b_tool = tool && b.b_category = category)
           j.batches)
    in
    let agrees (b : Serve.Wire.batch) =
      b.b_population = (List.hd mine).Serve.Wire.b_population
      && Core.Fault_model.equal b.b_model job.Serve.Wire.j_model
    in
    let rec tile at tally = function
      | [] -> if at = job.Serve.Wire.j_trials then Some tally else None
      | (b : Serve.Wire.batch) :: rest ->
        if b.b_first <> at || not (agrees b) then None
        else tile (at + b.b_count) (Core.Verdict.merge tally b.b_tally) rest
    in
    match mine, tile 0 (Core.Verdict.fresh_tally ()) mine with
    | b :: _, Some tally ->
      Some
        {
          Core.Campaign.c_workload = job.Serve.Wire.j_workload;
          c_tool = tool;
          c_category = category;
          c_model = job.Serve.Wire.j_model;
          c_population = b.Serve.Wire.b_population;
          c_tally = tally;
        }
    | _ -> None
  in
  let cells = List.map cell (Serve.Plan.cells job) in
  List.for_all Option.is_some cells
  && Core.Campaign.to_csv (List.map Option.get cells) = j.csv
  && md5 j.csv = j.digest

let offline_samples = 3

(* Stream reassembly for every job, repeats equal to their originals,
   and a seeded sample of jobs against the offline computation of the
   same spec.  Returns (checks made, mismatches). *)
let check seed (w : window) =
  Span.with_ ~layer:"check" "check.serve" @@ fun () ->
  let finished = List.filter (fun j -> j.state = `Done) (Array.to_list w.jobs) in
  let bad_stream = List.filter (fun j -> not (reassembles j)) finished in
  let bad_repeat =
    List.filter
      (fun j ->
        match j.repeat_of with
        | Some o -> w.jobs.(o).state = `Done && w.jobs.(o).csv <> j.csv
        | None -> false)
      finished
  in
  let fresh = Array.of_list (List.filter (fun j -> j.repeat_of = None) finished) in
  Support.Rng.shuffle (bench_rng seed 3) fresh;
  let sample = Array.to_list (Array.sub fresh 0 (min offline_samples (Array.length fresh))) in
  let bad_offline =
    List.filter
      (fun j ->
        let job = j.spec in
        let cfg =
          Serve.Plan.config_for ~base:Core.Campaign.default_config
            ~model:job.Serve.Wire.j_model ~trials:job.Serve.Wire.j_trials
            ~seed:job.Serve.Wire.j_seed
        in
        let p = Core.Campaign.prepare cfg (Workloads.find_exn job.Serve.Wire.j_workload) in
        let cells =
          List.map (fun (tool, c) -> Core.Campaign.run_cell cfg p tool c) (Serve.Plan.cells job)
        in
        md5 (Core.Campaign.to_csv cells) <> j.digest)
      sample
  in
  List.iter (fun _ -> log "serve_open: a verdict stream does not reassemble") bad_stream;
  List.iter (fun _ -> log "serve_open: a repeated job's result differs") bad_repeat;
  List.iter (fun _ -> log "serve_open: a served digest differs from offline") bad_offline;
  ( List.length finished + List.length sample,
    List.length bad_stream + List.length bad_repeat + List.length bad_offline )

(* --- metrics --- *)

let ms_of f js = List.map (fun j -> 1000.0 *. f j) js
let latency j = j.finished -. j.due
let measured w = Array.sub w.jobs w.warm (Array.length w.jobs - w.warm)
let done_jobs w = List.filter (fun j -> j.state = `Done) (Array.to_list (measured w))

let count w st = Array.fold_left (fun a j -> if j.state = st then a + 1 else a) 0 w.jobs

let result_digest w =
  md5 (String.concat "\n" (Array.to_list (Array.map (fun j -> j.digest) w.jobs)))

let window_notes w =
  let lag = ms_of (fun j -> j.sent -. j.due) (List.filter (fun j -> j.sent > 0.0) (Array.to_list w.jobs)) in
  [
    Printf.sprintf
      "open loop at %.1f jobs/s: %d attempted (%d warm-in), %d ok, %d failed, %d refused"
      rate (Array.length w.jobs) w.warm (count w `Done) (count w `Failed)
      (count w `Refused);
    Printf.sprintf "generator lag p95 %.2f ms, max %.2f ms; backlog at schedule end: %d job(s)"
      (quantile lag 0.95) (List.fold_left max 0.0 lag) w.backlog;
  ]
  @ List.map
      (fun (wl : Core.Workload.t) ->
        let mine =
          ms_of latency
            (List.filter
               (fun j -> j.spec.Serve.Wire.j_workload = wl.Core.Workload.name && j.repeat_of = None)
               (done_jobs w))
        in
        Printf.sprintf "  fresh %-10s jobs %3d  p50 %7.1f ms  p95 %7.1f ms" wl.Core.Workload.name
          (List.length mine) (median mine) (quantile mine 0.95))
      Workloads.all

(* Latency percentiles are taken per [subwindow] seconds of schedule
   (200 jobs at [rate], so p95 has 10 samples beyond it) and the median
   over sub-windows is reported: in longer windows a sustained slowdown
   moves every sub-window, a single host stall only one.  A job that failed or was
   refused counts as [drain_limit] late. *)
let subwindow = 20.0

let latency_ms j = 1000.0 *. if j.state = `Done then latency j else drain_limit

let subwindow_quantile w q =
  let t0 = w.jobs.(w.warm).due in
  let groups = Hashtbl.create 8 in
  Array.iter
    (fun j ->
      let k = int_of_float ((j.due -. t0) /. subwindow) in
      Hashtbl.replace groups k (latency_ms j :: (try Hashtbl.find groups k with Not_found -> [])))
    (measured w);
  median (Hashtbl.fold (fun _ lat acc -> quantile lat q :: acc) groups [])

(* Length of the union of the intervals [(a, b)]. *)
let union_s intervals =
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) (List.sort compare intervals)
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Busy time: the union of the jobs' sent -> Job_done intervals, the
   time the service had work as the client sees it.  Below capacity the
   arrival rate fixes how many jobs finish per second of the window, but
   not per second of busy time: that is set by the service's speed. *)
let busy_s js = union_s (List.map (fun j -> (j.sent, j.finished)) js)

let fresh_done w = List.filter (fun j -> j.repeat_of = None) (done_jobs w)
let measured_wall w =
  List.fold_left (fun m j -> max m j.finished) 0.0 (done_jobs w) -. w.jobs.(w.warm).due

let busy_note w =
  let busy = busy_s (done_jobs w) and wall = measured_wall w in
  Printf.sprintf "open loop: a job was in the service %.2f s of %.2f s (%.0f%%)" busy wall
    (100.0 *. ratio busy wall)

(* Trials a list of jobs asked for, both tools. *)
let trials_of js =
  List.fold_left (fun a j -> a + (List.length tools * j.spec.Serve.Wire.j_trials)) 0 js

let end_to_end (args : args) =
  let dir = tmp_dir () in
  let srv, first_setup = time (fun () -> setup dir 1) in
  let w = window srv args.seed args.seconds in
  stop srv;
  (* read before the extra set-ups, so the peak is one server's *)
  let rss = peak_rss_mb () in
  let more_setups =
    Setup.timed ~reps:(setup_reps - 1)
      (let k = ref 1 in
       fun () ->
         incr k;
         stop (setup dir !k))
  in
  let setup = first_setup :: more_setups in
  remove_dir dir;
  let checked, mismatched = check args.seed w in
  (* Per second of busy time: fresh trials over the time a fresh job
     was in the service; jobs and faults delivered (trials, repeats
     included) over the time any job was. *)
  let ok = done_jobs w and fresh = fresh_done w in
  let busy = busy_s ok in
  let n = Array.length (measured w) and n_ok = List.length ok in
  {
    metrics =
      [
        metric ~samples:(List.length fresh) "grid_trials_per_s" "trials/s"
          (ratio (float_of_int (trials_of fresh)) (busy_s fresh));
        metric ~samples:n "serve_p50_ms" "ms" (subwindow_quantile w 0.5);
        metric ~samples:n "serve_p95_ms" "ms" (subwindow_quantile w 0.95);
        metric ~samples:n_ok "serve_jobs_per_s" "jobs/s" (ratio (float_of_int n_ok) busy);
        metric ~samples:n_ok "exact_faults_per_s" "faults/s"
          (ratio (float_of_int (trials_of ok)) busy);
        metric ~samples:setup_reps "setup_s" "s" (median setup);
        metric "peak_rss_mb" "MB" rss;
      ];
    attempted = Array.length w.jobs + checked;
    failed = (Array.length w.jobs - count w `Done) + mismatched;
    digest = result_digest w;
    notes =
      window_notes w
      @ [
          (let lat = List.map latency_ms (Array.to_list (measured w)) in
           Printf.sprintf "whole window: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms over %d jobs"
             (median lat) (quantile lat 0.95) (quantile lat 0.99) n);
          busy_note w;
        ];
  }

(* Traced run: an untraced server and window first, as the overhead
   baseline; then, in the traced span, the compile layers and
   preparation bench-side and a server started with the program's spans
   and counters on (so its warm-up records the prepare and rejoin
   spans), traced for the other half of the window. *)
let per_layer (args : args) =
  let dir = tmp_dir () in
  let half = args.seconds /. 2.0 in
  let base_w =
    Span.untraced (fun () ->
        let srv = setup dir 1 in
        let w = window srv args.seed half in
        stop srv;
        w)
  in
  Span.traced @@ fun () ->
  Setup.compile_layers ();
  let prepared = Setup.prepare Core.Campaign.default_config Workloads.all in
  Obs.Metrics.enable ();
  Obs.Trace.enable ();
  let srv = setup dir 2 in
  let w = window ~timed_decode:true srv args.seed half in
  stop srv;
  Span.import_trace ();
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  remove_dir dir;
  (* runner construction is not spanned inside the service: time it
     bench-side on the same cells the jobs used *)
  let cells =
    List.sort_uniq compare
      (List.map
         (fun j -> (j.spec.Serve.Wire.j_workload, List.hd j.spec.Serve.Wire.j_categories))
         (Array.to_list w.jobs))
  in
  let builds =
    List.concat_map
      (fun (name, category) ->
        let p =
          List.find (fun (p : Core.Campaign.prepared) -> p.workload.Core.Workload.name = name) prepared
        in
        List.map
          (fun tool ->
            snd
              (time (fun () ->
                   Span.with_ ~layer:"core" "core.runner" (fun () ->
                       Core.Campaign.runner p tool category))))
          tools)
      cells
  in
  let checked, mismatched = check args.seed w in
  let ok = done_jobs w in
  let shards tool =
    List.filter (fun s -> Span.arg s "tool" = tool) (Span.named "serve-shard")
  in
  let trial_us tool =
    let ss = shards tool in
    let count = List.fold_left (fun a s -> a + int_of_string (Span.arg s "count")) 0 ss in
    1e6 *. ratio (Span.total_s ss) (float_of_int count)
  in
  let kind repeat = List.filter (fun j -> (j.repeat_of <> None) = repeat) ok in
  let lag = ms_of (fun j -> j.sent -. j.due) ok in
  let p50_base = median (ms_of latency (done_jobs base_w)) in
  let metrics =
    Setup.layer_metrics ()
    @ [
        ("core.record_rejoin_ms", Setup.ms (Span.named "record-rejoin"));
        ("core.runner_build_us", 1e6 *. median builds);
        ("core.llfi_trial_us", trial_us "LLFI");
        ("core.pinfi_trial_us", trial_us "PINFI");
        ("vm.ir.ff_rebuilds", Layers.counter snap "vm.ir.ff_rebuilds");
        ("vm.x86.ff_rebuilds", Layers.counter snap "vm.x86.ff_rebuilds");
        ("engine.core_utilisation", ratio base_w.cpu (base_w.wall *. float_of_int nproc));
        ("serve.admit_ms", median (ms_of (fun j -> j.acked -. j.sent) ok));
        ("serve.queue_ms", median (ms_of (fun j -> j.first_batch -. j.acked) ok));
        ("serve.stream_ms", median (ms_of (fun j -> j.finished -. j.first_batch) ok));
        ("serve.fresh_p50_ms", median (ms_of latency (kind false)));
        ("serve.repeat_p50_ms", median (ms_of latency (kind true)));
        ( "serve.batches_per_job",
          mean (List.map (fun j -> float_of_int (List.length j.batches)) ok) );
        ("serve.wire_bytes_per_job", mean (List.map (fun j -> float_of_int j.bytes) ok));
        ("serve.client_decode_us_per_frame", 1e6 *. ratio w.decode_s (float_of_int w.frames));
        ("serve.cells_shared", Layers.counter snap "serve.cells.shared");
        ("serve.prepared_cache_hit_ratio", Layers.hit_ratio snap "serve.prepared_cache");
        ("serve.runner_cache_hit_ratio", Layers.hit_ratio snap "serve.runner_cache");
        ( "serve.shard_p50_ms",
          median (List.map (fun s -> 1000.0 *. Span.dur_s s) (Span.named "serve-shard")) );
        ("serve.journal_flushes", Layers.counter snap "serve.journal.flushes");
        ("serve.generator_lag_ms", quantile lag 0.95);
        ("serve.backlog_jobs", float_of_int w.backlog);
        ("obs.trace_overhead_share", ratio (median (ms_of latency ok)) p50_base -. 1.0);
      ]
  in
  {
    metrics = Layers.metrics metrics;
    attempted = Array.length base_w.jobs + Array.length w.jobs + checked;
    failed =
      (Array.length base_w.jobs - count base_w `Done)
      + (Array.length w.jobs - count w `Done)
      + mismatched;
    digest = result_digest w;
    notes =
      window_notes base_w @ window_notes w
      @ [
          busy_note w ^ "; the rest of the window is open-loop idle, charged to serve";
        ];
  }
