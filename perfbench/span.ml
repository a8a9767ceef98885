(* Benchmark-side spans.  The benchmark brackets each call it makes into
   a layer of the program; a traced run additionally merges the
   program's own Obs.Trace spans (prepare, task, trial-run, ...) under
   the benchmark span that was open when they started.  Everything
   stays in memory until [write] at the end of the run.

   A span's self time is its duration minus the part of it covered by
   its children; a layer's self time is the sum over its spans.
   Concurrent spans (pool workers, overlapping served jobs) each count
   their own time, so layer self times are busy time and may add up to
   more than the wall-clock. *)

type t = {
  id : int;
  name : string;
  layer : string;
  args : (string * string) list;  (** job / cell identity *)
  call : bool;  (** bracketed a call on the benchmark's own domain *)
  mutable parent : int;  (** -1 for the root *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let on = ref false
let all : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let add ~call ~parent ~layer ~args name start_ns stop_ns =
  let s =
    { id = !next_id; name; layer; args; call; parent; start_ns; stop_ns }
  in
  incr next_id;
  all := s :: !all;
  s

let current () = match !stack with s :: _ -> s.id | [] -> -1

(* [with_ ~layer name f]: run [f] inside a span when tracing is on. *)
let with_ ?(args = []) ~layer name f =
  if not !on then f ()
  else begin
    let s =
      add ~call:true ~parent:(current ()) ~layer ~args name (Common.now_ns ())
        0L
    in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Common.now_ns ();
        stack := List.tl !stack)
      f
  end

(* Wall-clock spent in [untraced]. *)
let untraced_s = ref 0.0

(* [untraced f]: run [f] with benchmark spans off and outside every
   span — the untraced half of a traced run, against which the tracing
   overhead is measured.  It is charged to no layer. *)
let untraced f =
  let was = !on and t0 = Common.now () in
  on := false;
  Fun.protect
    ~finally:(fun () ->
      on := was;
      untraced_s := !untraced_s +. (Common.now () -. t0))
    f

(* [traced f]: the traced half of a traced run.  Layer self times and
   span coverage are computed under this span alone. *)
let traced f = with_ ~layer:"bench" "traced" f

(* An interval timed elsewhere (a served job and its phases). *)
let record ?(args = []) ?parent ~layer name ~start ~stop =
  let parent = match parent with Some p -> p | None -> current () in
  (add ~call:false ~parent ~layer ~args name start stop).id

(* Program-side span names and the layer each belongs to. *)
let lib_layer = function
  | "prepare" | "record-rejoin" | "runner-build" | "plan-targets"
  | "run-trials" | "enumerate" ->
    "core"
  | "ff-advance" | "trial-run" -> "vm"
  | "task" -> "engine"
  | "serve-shard" -> "serve"
  | "exhaust-cell" | "plan" | "sample" | "execute" -> "exhaust"
  | _ -> "other"

(* Move the program's completed Obs.Trace spans into the record, each
   root under the innermost benchmark call span open at its start, and
   clear the program's buffers.  The collection itself is the obs
   layer's work. *)
let import_trace () =
  with_ ~layer:"obs" "obs.collect" @@ fun () ->
  let calls = List.filter (fun s -> s.call) !all in
  let enclosing start =
    List.fold_left
      (fun best s ->
        if s.start_ns <= start && (s.stop_ns >= start || s.stop_ns = 0L) then
          match best with
          | Some b when b.start_ns >= s.start_ns -> best
          | _ -> Some s
        else best)
      None calls
  in
  let rec walk parent (tr : Obs.Trace.tree) =
    let s =
      add ~call:false ~parent ~layer:(lib_layer tr.t_name) ~args:tr.t_args
        tr.t_name tr.t_start_ns
        (Int64.add tr.t_start_ns tr.t_dur_ns)
    in
    List.iter (walk s.id) tr.t_children
  in
  List.iter
    (fun (tr : Obs.Trace.tree) ->
      let parent =
        match enclosing tr.t_start_ns with Some s -> s.id | None -> -1
      in
      walk parent tr)
    (Obs.Trace.forest ());
  Obs.Trace.reset ()

let dur_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with
  | None -> total
  | Some (a, b) -> Int64.add total (Int64.sub b a)

let children_table () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          ((s.start_ns, s.stop_ns)
          :: (try Hashtbl.find tbl s.parent with Not_found -> [])))
    !all;
  tbl

let self_s children s =
  let kids = try Hashtbl.find children s.id with Not_found -> [] in
  Int64.to_float
    (Int64.sub (Int64.sub s.stop_ns s.start_ns) (covered s.start_ns s.stop_ns kids))
  /. 1e9

(* Self seconds per layer over the spans below [root], plus the share
   of the root's wall-clock that its child spans cover (the part of the
   run the layers account for). *)
let layer_self ~root =
  let children = children_table () in
  let below = Hashtbl.create 1024 in
  Hashtbl.replace below root.id ();
  (* ids grow with creation and a parent is created before its
     children, so one pass in creation order marks every descendant *)
  List.iter
    (fun s -> if Hashtbl.mem below s.parent then Hashtbl.replace below s.id ())
    (List.rev !all);
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.id <> root.id && Hashtbl.mem below s.id then
        Hashtbl.replace tbl s.layer
          ((try Hashtbl.find tbl s.layer with Not_found -> 0.0)
          +. self_s children s))
    !all;
  let coverage = 1.0 -. Common.ratio (self_s children root) (dur_s root) in
  (tbl, coverage)

(* --- queries over the recorded spans --- *)

let named name = List.filter (fun s -> s.name = name) !all
let children_of s = List.filter (fun c -> c.parent = s.id) !all
let arg s k = try List.assoc k s.args with Not_found -> ""
let total_s spans = List.fold_left (fun acc s -> acc +. dur_s s) 0.0 spans

let reset () =
  all := [];
  stack := [];
  next_id := 0

(* One JSON object per span, timestamps rebased to the earliest span. *)
let write path =
  let spans = List.rev !all in
  let t0 =
    List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m)
      Int64.max_int spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"args\":{%s},\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.parent s.name s.layer
            (String.concat ","
               (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) s.args))
            (Int64.sub s.start_ns t0) (Int64.sub s.stop_ns t0))
        spans)
