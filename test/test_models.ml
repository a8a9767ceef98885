(* Pinned results for every fault model.

   The other model tests compare one execution tier against another
   tier of the same build; these compare against committed digests, so
   a change to how a fault model corrupts its destination, draws its
   bits or reports its site cannot pass unnoticed, whatever the tier.

   - Monte-Carlo trials: every pre-existing [Vm.Outcome.stats] field of
     25 seeded trials per (model, tool, category) cell on mcf, through
     both the direct path ([Llfi.inject] / [Pinfi.inject], one stream
     split per trial exactly as a campaign does) and the snapshot path
     ([Campaign.run_cell]), which must agree with each other and with
     the pinned digest.
   - Exact campaigns: the full exact CSV line of [Exhaust.run_cell] on
     one generated program's All cell, both tools, for every
     enumerable model. *)

let trials = 25
let tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
let categories = [ Core.Category.All; Core.Category.Cmp ]

(* The fields [Vm.Outcome.stats] had when the digests were taken, one
   line per trial; the program output enters through its digest. *)
let stats_line (s : Vm.Outcome.stats) =
  let outcome =
    match s.Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> "finished:" ^ Digest.to_hex (Digest.string out)
    | Vm.Outcome.Crashed t -> "crashed:" ^ Vm.Trap.to_string t
    | Vm.Outcome.Hung -> "hung"
  in
  Printf.sprintf "%s|%d|%b|%b|%s|%d|%d|%s\n" outcome s.Vm.Outcome.steps
    s.Vm.Outcome.injected s.Vm.Outcome.activated s.Vm.Outcome.fault_note
    s.Vm.Outcome.injected_step s.Vm.Outcome.fault_site
    (Vm.First_use.name s.Vm.Outcome.first_use)

let digest lines = Digest.to_hex (Digest.string (String.concat "" lines))

let direct config (p : Core.Campaign.prepared) tool category =
  let model = config.Core.Campaign.model in
  let master =
    Core.Campaign.cell_rng config ~workload:p.Core.Campaign.workload.Core.Workload.name
      ~tool ~category
  in
  List.init trials (fun _ ->
      let rng = Support.Rng.split master in
      stats_line
        (match tool with
        | Core.Campaign.Llfi_tool ->
          Core.Llfi.inject ~track_use:true ~model p.Core.Campaign.llfi category
            rng
        | Core.Campaign.Pinfi_tool ->
          Core.Pinfi.inject ~track_use:true ~model p.Core.Campaign.pinfi
            category rng))

let snapshot config p tool category =
  let lines = ref [] in
  ignore
    (Core.Campaign.run_cell ~track_use:true
       ~on_stats:(fun _ _ s -> lines := stats_line s :: !lines)
       { config with Core.Campaign.snapshot = true }
       p tool category);
  List.rev !lines

(* (model, tool, category) -> MD5 of the 25 trial lines. *)
let pinned_trials =
  [
    ("bitflip/LLFI/all", "190ebec775a85afcfe6c25f17b8ad678");
    ("bitflip/LLFI/cmp", "bbbb33abf3d83f1ff234ffb38d18d1eb");
    ("bitflip/PINFI/all", "53da20c812d6dcee71c43281efb1bcc3");
    ("bitflip/PINFI/cmp", "9bf9da0f4e3a344df2ef963c3b322b47");
    ("multi_bit:2/LLFI/all", "8bed24974ba00e32cc77e5a712bd0057");
    ("multi_bit:2/LLFI/cmp", "1670dd847bfd6d40a71a7dc7a713a476");
    ("multi_bit:2/PINFI/all", "08f8c6b7eb3f0edd3ee4cd726c978244");
    ("multi_bit:2/PINFI/cmp", "3969f9b43d640a74ac96dbe1da9ab5eb");
    ("stuck_at_0/LLFI/all", "6e1074bbac2eaf2140016cef6e9be377");
    ("stuck_at_0/LLFI/cmp", "afaa3b09d65dbb05db8d8429cfb07d25");
    ("stuck_at_0/PINFI/all", "c595b4ead68e60858a549137a3009b4e");
    ("stuck_at_0/PINFI/cmp", "44df554016d7c06fdaab5a4668a85009");
    ("stuck_at_1/LLFI/all", "c900178a891458b4aace3e8fb60599d0");
    ("stuck_at_1/LLFI/cmp", "4d6bf9970a495b16ce6b15122c509d99");
    ("stuck_at_1/PINFI/all", "a6b712b50d441fceb26c7ffa6f97382c");
    ("stuck_at_1/PINFI/cmp", "85ed3a1f129a0fc92160261a5e270a9c");
    ("skip/LLFI/all", "1cf41ef57b7bbf8e3a1b2441f2a3ed74");
    ("skip/LLFI/cmp", "3e1c438731f7f8ee533bcc013e41e0ff");
    ("skip/PINFI/all", "37fe93b5eebc86a616594862ab85d00f");
    ("skip/PINFI/cmp", "8e0c05dc72f4da5a55c4cff0bb7a6953");
    ("load_value/LLFI/all", "05da0ad9975ee0002c4d24fd28290139");
    ("load_value/LLFI/cmp", "ad10b594cc3f88ae18b2f59658c02b9e");
    ("load_value/PINFI/all", "714744f5a1b011ad70ecfce66eee13d0");
    ("load_value/PINFI/cmp", "9ec2366163bc3e24636d19bf1d1525ea");
  ]

let cell_key model tool category =
  Printf.sprintf "%s/%s/%s"
    (Core.Fault_model.name model)
    (Core.Campaign.tool_name tool)
    (Core.Category.name category)

let test_trials () =
  let base = { Core.Campaign.default_config with trials } in
  let p = Core.Campaign.prepare base Workloads.mcf in
  List.iter
    (fun model ->
      let config = { base with model } in
      List.iter
        (fun tool ->
          List.iter
            (fun category ->
              let key = cell_key model tool category in
              let d = digest (direct config p tool category) in
              let s = digest (snapshot config p tool category) in
              Alcotest.(check string) (key ^ ": snapshot path = direct path") d s;
              Alcotest.(check string) (key ^ ": pinned")
                (Option.value ~default:"(none)" (List.assoc_opt key pinned_trials))
                d)
            categories)
        tools)
    Core.Fault_model.all

(* --- exact cells --- *)

let tiny =
  {
    Core.Workload.name = "tiny-7";
    suite = "test";
    description = "generated test program";
    paper_counterpart = "(none)";
    source = Fuzz.Gen.source ~seed:7 ~size:5 ();
    inputs = [||];
    input_name = "none";
  }

let exact_models =
  Core.Fault_model.
    [ Bitflip; Stuck_at_0; Stuck_at_1; Skip ]

(* (model, tool) -> the exact CSV line (header stripped). *)
let pinned_exact =
  [
    ("bitflip/LLFI", "tiny-7,LLFI,all,75,4229,0,0,247,3982,63,4725,1998,2245,482,0,0,0.422857143,0.475132275,0.102010582,0.000000000,0.000000000");
    ("bitflip/PINFI", "tiny-7,PINFI,all,87,5054,504,0,108,4442,126,9954,4130,5106,718,0,1008,0.414908579,0.512959614,0.072131806,0.000000000,0.000000000");
    ("stuck_at_0/LLFI", "tiny-7,LLFI,all,stuck_at_0,75,4229,0,2927,2,1300,63,4725,4008,618,99,0,0,0.848253968,0.130793651,0.020952381,0.000000000,0.000000000");
    ("stuck_at_0/PINFI", "tiny-7,PINFI,all,stuck_at_0,87,5054,504,3217,0,1333,126,9954,8242,1498,214,0,1008,0.828008841,0.150492264,0.021498895,0.000000000,0.000000000");
    ("stuck_at_1/LLFI", "tiny-7,LLFI,all,stuck_at_1,75,4229,0,1302,245,2682,63,4725,2715,1627,383,0,0,0.574603175,0.344338624,0.081058201,0.000000000,0.000000000");
    ("stuck_at_1/PINFI", "tiny-7,PINFI,all,stuck_at_1,87,5054,504,1333,108,3109,126,9954,5842,3608,504,0,1008,0.586899739,0.362467350,0.050632911,0.000000000,0.000000000");
    ("skip/LLFI", "tiny-7,LLFI,all,skip,75,75,0,0,0,75,1,75,49,20,6,0,0,0.653333333,0.266666667,0.080000000,0.000000000,0.000000000");
    ("skip/PINFI", "tiny-7,PINFI,all,skip,87,87,8,0,0,79,1,79,46,30,3,0,8,0.582278481,0.379746835,0.037974684,0.000000000,0.000000000");
  ]

let test_exact () =
  let p = Core.Campaign.prepare Core.Campaign.default_config tiny in
  List.iter
    (fun model ->
      List.iter
        (fun tool ->
          let key =
            Core.Fault_model.name model ^ "/" ^ Core.Campaign.tool_name tool
          in
          let e =
            Exhaust.run_cell ~model Exhaust.default_config p tool
              Core.Category.All
          in
          let line =
            match
              String.split_on_char '\n' (Core.Campaign.exact_to_csv [ e ])
            with
            | _header :: row :: _ -> row
            | _ -> Alcotest.fail "exact CSV has no data row"
          in
          Alcotest.(check string) (key ^ ": pinned exact row")
            (Option.value ~default:"(none)" (List.assoc_opt key pinned_exact))
            line)
        tools)
    exact_models

(* --- the pruner's fact agrees with the corruption itself --- *)

(* [golden_change] is what exhaustive pruning believes a fault does to
   its destination; [apply] of [corrupt]'s edit is what injection does.
   A fault with any pre-write value other than the golden one must be
   [Opaque], so the prior is chosen to differ from the golden bits. *)
let test_golden_change_agrees =
  QCheck.Test.make ~name:"golden_change agrees with apply of corrupt"
    ~count:500
    QCheck.(triple (int_range 0 5) int64 (int_range 0 63))
    (fun (m, gold, bit) ->
      let model = List.nth Core.Fault_model.all m in
      let edit =
        Vm.Fault_model.corrupt model (Vm.Fault_model.Value 64)
          (Support.Rng.of_int m) ~forced_bit:bit
      in
      let after = Vm.Fault_model.apply edit ~prior:(Int64.lognot gold) gold in
      match Vm.Fault_model.golden_change model ~gold ~bit with
      | Vm.Fault_model.Unchanged -> Int64.equal after gold
      | Vm.Fault_model.Flips_bit ->
        Int64.equal after (Int64.logxor gold (Int64.shift_left 1L bit))
      | Vm.Fault_model.Opaque -> true)

let () =
  Alcotest.run "models"
    [
      ( "pinned",
        [
          ("every model's trials, both paths", `Slow, test_trials);
          ("exact cells per enumerable model", `Slow, test_exact);
        ] );
      ( "contract",
        [ QCheck_alcotest.to_alcotest test_golden_change_agrees ] );
    ]
