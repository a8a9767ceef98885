(* The repository benchmark: one workload per invocation.

     bench --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with every kind of
   tracing off; with --trace 1 it makes the traced run and reports the
   per-layer metrics instead.  Either way the human-readable report goes
   to stderr (and to .perfbench-out/), and the last line of stdout is
   one JSON object: correct, attempted, failed, metrics.  The exit code
   is 0 only when every output check passed. *)

open Common

let workloads =
  [
    ("paper_grid", (Grid.end_to_end, Grid.per_layer));
    ("serve_open", (Serve_open.end_to_end, Serve_open.per_layer));
    ("exact_cells", (Exact.end_to_end, Exact.per_layer));
  ]

(* %.17g keeps every digit; JSON has no NaN or infinity. *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_line (o : outcome) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
              (json_number m.m_value) m.m_unit)
          o.metrics))

(* The traced run's metrics: what the workload measured, the per-layer
   self times and span coverage of the traced half, and 0 for every
   layer it leaves idle — in catalogue order. *)
let complete_per_layer (o : outcome) root =
  let self, coverage = Span.layer_self ~root in
  let derived =
    ("obs.span_coverage", coverage)
    :: List.map
         (fun l -> (l ^ ".self_s", try Hashtbl.find self l with Not_found -> 0.0))
         Layers.layers
  in
  let measured = List.map (fun m -> (m.m_name, m.m_value)) o.metrics in
  let metrics =
    Layers.metrics
      (List.map
         (fun (name, _, _) ->
           ( name,
             match List.assoc_opt name measured with
             | Some v -> v
             | None -> Option.value (List.assoc_opt name derived) ~default:0.0 ))
         Layers.per_layer)
  in
  ({ o with metrics }, self, coverage)

let layer_report (o : outcome) self root =
  let wall = Span.dur_s root in
  let spans_of l = List.length (List.filter (fun s -> s.Span.layer = l) !Span.all) in
  List.concat_map
    (fun l ->
      let own = try Hashtbl.find self l with Not_found -> 0.0 in
      Printf.sprintf "%-8s self %8.3f s (%5.1f%% of %.2f s wall)  work: %d span(s)" l own
        (100.0 *. ratio own wall) wall (spans_of l)
      :: List.filter_map
           (fun (name, unit, moves) ->
             if String.length name > String.length l
                && String.sub name 0 (String.length l + 1) = l ^ "."
             then
               let m = List.find (fun m -> m.m_name = name) o.metrics in
               Some (Printf.sprintf "    %-34s %14.4f %-9s -> %s" name m.m_value unit moves)
             else None)
           Layers.per_layer)
    Layers.layers

let main args =
  let end_to_end, per_layer =
    match List.assoc_opt args.workload workloads with
    | Some w -> w
    | None -> failwith (Printf.sprintf "unknown workload %S; %s" args.workload usage)
  in
  Span.on := args.trace;
  let o =
    Span.with_ ~layer:"bench" "workload" ~args:[ ("workload", args.workload) ] (fun () ->
        (if args.trace then per_layer else end_to_end) args)
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" args.workload args.seed (Bool.to_int args.trace) in
  let o, lines =
    if args.trace then begin
      let root = List.hd (Span.named "traced") in
      let o, self, coverage = complete_per_layer o root in
      Span.write (out_path (tag ^ "-spans.jsonl"));
      ( o,
        Printf.sprintf "untraced baseline half: %.2f s wall, charged to no layer" !Span.untraced_s
        :: Printf.sprintf "span coverage of the traced half's wall-clock: %.1f%%" (100.0 *. coverage)
        :: layer_report o self root )
    end
    else
      ( o,
        List.map
          (fun m ->
            Printf.sprintf "%-20s %14.4f %-9s (%d sample(s))" m.m_name m.m_value m.m_unit
              m.m_samples)
          o.metrics )
  in
  let report =
    [ Printf.sprintf "== %s seed %d, %g s window, trace %b" args.workload args.seed args.seconds args.trace ]
    @ o.notes @ lines
    @ [
        Printf.sprintf "attempted %d, failed %d" o.attempted o.failed;
        Printf.sprintf "result digest %s" o.digest;
      ]
  in
  List.iter prerr_endline report;
  let oc = open_out (out_path (tag ^ "-report.txt")) in
  List.iter (fun l -> output_string oc (l ^ "\n")) report;
  close_out oc;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (out_path "digests.tsv") in
  Printf.fprintf oc "%s\t%d\t%d\t%s\n" args.workload args.seed (Bool.to_int args.trace) o.digest;
  close_out oc;
  print_endline (result_line o);
  if o.failed > 0 then exit 1

let () =
  match parse_args () with
  | exception Failure m ->
    prerr_endline m;
    exit 2
  | args -> (
    try main args
    with e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      Printexc.print_backtrace stderr;
      exit 3)
