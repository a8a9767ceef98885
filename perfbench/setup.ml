(* Set-up shared by the workloads: what has to happen before the first
   trial can run, timed several times so setup_s is a median. *)

(* [reps] timings of [f]. *)
let timed ~reps f = List.init reps (fun _ -> snd (Common.time f))

let prepare config ws =
  List.map
    (fun (w : Core.Workload.t) ->
      Span.with_ ~layer:"core" "core.prepare"
        ~args:[ ("workload", w.Core.Workload.name) ]
        (fun () -> Core.Campaign.prepare config w))
    ws

(* Traced runs only: the front end's three stages, called one by one on
   all six programs so each layer gets its own span. *)
let compile_layers () =
  List.iter
    (fun (w : Core.Workload.t) ->
      let args = [ ("workload", w.Core.Workload.name) ] in
      let ir =
        Span.with_ ~args ~layer:"minic" "minic.compile" (fun () ->
            Minic.compile w.Core.Workload.source)
      in
      let ir = Span.with_ ~args ~layer:"opt" "opt.optimize" (fun () -> Opt.optimize ir) in
      ignore
        (Span.with_ ~args ~layer:"backend" "backend.compile" (fun () ->
             Backend.compile ~config:Core.Campaign.default_config.backend ir)))
    Workloads.all

let ms spans = 1000.0 *. Span.total_s spans

(* Per-layer metrics of the set-up phase, read from its spans (one
   traced pass). *)
let layer_metrics () =
  [
    ("minic.compile_ms", ms (Span.named "minic.compile"));
    ("opt.optimize_ms", ms (Span.named "opt.optimize"));
    ("backend.compile_ms", ms (Span.named "backend.compile"));
    ("core.prepare_ms", ms (Span.named "core.prepare"));
  ]
