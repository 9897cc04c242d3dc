(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, prints paper-reported values next to measured ones
   and runs the ablation studies listed in DESIGN.md §6. With --scaling it
   instead emits the solver-scaling study as one JSON object. Per-stage
   and per-layer performance numbers come from perfbench/, not from here.

   Flags:
     --quick         smaller defect counts (fast smoke run)
     --no-ablations  skip the ablation sweeps
     --scaling       emit the scaling study as one JSON object (schema
                     dotest-bench/9): per-N raw-solve table (oracle vs
                     auto vs auto+shared) plus pipeline evaluate-stage
                     A/Bs on the n=37 comparator (quick) and the large-N
                     scaled ADC; nothing else is printed
     --jobs N        worker domains (default: cores-1, min 1; DOTEST_JOBS) *)

let quick_config =
  Core.Pipeline.Config.(default |> with_defects 5_000 |> with_good_space_dies 16)

let banner title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let note fmt = Format.printf fmt

let print_table t = Format.printf "%s@." (Util.Table.render t)

let seconds f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  result, Unix.gettimeofday () -. t0

(* ------------------------------------------------------------------ *)
(* T1-T3, F3: the comparator macro                                      *)
(* ------------------------------------------------------------------ *)

let comparator_experiments ~quick config =
  banner "Experiment T1/T2/T3/F3: comparator test path";
  (* Table 1 magnitudes: the paper first sprinkled 25 000 defects for the
     class list and later 10 000 000 for statistically significant
     magnitudes; we scale the same way (more spots, same classes). *)
  let t1_config =
    if quick then config
    else Core.Pipeline.Config.with_defects 200_000 config
  in
  let analysis, dt =
    seconds (fun () ->
        Core.Pipeline.analyze t1_config
          (Adc.Comparator.macro Adc.Comparator.default_options))
  in
  note "(%d defects sprinkled, %d effective, %.1f s)@."
    analysis.Core.Pipeline.sprinkled analysis.Core.Pipeline.effective dt;
  note
    "@.Table 1 — paper: shorts >95%% of faults; opens a tiny fault share but a visible class share@.";
  print_table (Core.Report.table1 analysis);
  note "@.Table 2 — paper: stuck-at dominates; clock-value grows for non-catastrophic@.";
  print_table (Core.Report.table2 analysis);
  note "@.Table 3 — paper: IDDQ detects 24.2%%/25.6%%; currents overlap@.";
  print_table (Core.Report.table3 analysis);
  note "@.Fig. 3 — paper: missing-code 66.2%%, 26.6%% current-only, 10.0%% IDDQ-only@.";
  print_table (Core.Report.figure3 analysis)

(* ------------------------------------------------------------------ *)
(* F4, F5, X1, X2: global and DfT                                       *)
(* ------------------------------------------------------------------ *)

let global_experiments config =
  banner "Experiment F4/F5/X1/X2: global coverage and DfT";
  let run macros =
    Core.Global.combine (Core.Pipeline.analyze_all config macros)
  in
  let original, dt_original =
    seconds (fun () -> run (Dft.Measures.original ()))
  in
  note "(original macro set analysed in %.1f s)@." dt_original;
  note "@.Fig. 4 — paper: coverage 93.3%% cat / 93.1%% non-cat; 32.5%% current-only@.";
  print_table (Core.Report.figure4 original);
  note "@.X1 per-macro current detectability — paper: clock generator 93.8%%, ladder 99.8%%@.";
  print_table (Core.Report.macro_current original);
  let improved, dt_improved =
    seconds (fun () -> run (Dft.Measures.improved ()))
  in
  note "@.(DfT macro set analysed in %.1f s)@." dt_improved;
  note "@.Fig. 5 — paper: coverage rises to 99.1%%; voltage-only shrinks to 5.8%%@.";
  print_table (Core.Report.figure4 improved);
  note "@.X2 headline scalars — paper: 10.0%%/11.0%% IDDQ-only; millisecond-scale test time@.";
  print_table (Core.Report.summary original);
  let cat = Core.Global.partition original Fault.Types.Catastrophic in
  let ncat = Core.Global.partition original Fault.Types.Non_catastrophic in
  note
    "IDDQ-only: catastrophic %.1f%%, non-catastrophic %.1f%% (paper: 10.0%%/11.0%%)@."
    (100. *. Testgen.Overlap.only_detected_by cat ~mechanism:"IDDQ")
    (100. *. Testgen.Overlap.only_detected_by ncat ~mechanism:"IDDQ")

(* ------------------------------------------------------------------ *)
(* X3: quality impact, X4: the amplifier baseline study                 *)
(* ------------------------------------------------------------------ *)

let quality_experiment () =
  banner "Experiment X3: outgoing quality (Williams-Brown)";
  note
    "The paper's motivation: escapes ship as field failures. Translating@.\
     the measured coverages into defect levels at an 80%% process yield:@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "test strategy", Util.Table.Left;
          "coverage", Util.Table.Right;
          "defective parts per million", Util.Table.Right;
        ]
  in
  let row label coverage =
    Util.Table.add_row t
      [
        label;
        Util.Table.cell_pct (100. *. coverage);
        Printf.sprintf "%.0f" (Testgen.Quality.dpm ~yield:0.80 ~coverage);
      ]
  in
  row "no test" 0.0;
  row "simple tests (paper: 93.3%)" 0.933;
  row "simple tests + DfT (paper: 99.1%)" 0.991;
  print_table t;
  note "coverage needed for 100 DPM at this yield: %.2f%%@."
    (100. *. Testgen.Quality.required_coverage ~yield:0.80 ~target_dpm:100.0)

let amplifier_experiment ~quick config =
  banner "Experiment X4: the Class-AB amplifier baseline (paper ref. [6])";
  note
    "Sachdev's silicon experiment: most process defects in a Class AB@.\
     amplifier are detectable by simple DC, transient and AC measurements.@.";
  let amp_config =
    if quick then Core.Pipeline.Config.with_defects 5_000 config else config
  in
  let result, dt = seconds (fun () -> Amplifier.Study.run ~config:amp_config ()) in
  note "(%d classes analysed in %.1f s)@."
    (List.length result.Amplifier.Study.reports)
    dt;
  print_table (Amplifier.Study.report_table result)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §6)                                             *)
(* ------------------------------------------------------------------ *)

let ablation_sigma config =
  banner "Ablation A1: acceptance-window width (sigma)";
  note "Wider windows trade escapes for yield loss; the paper uses 3 sigma.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "sigma", Util.Table.Right;
          "comparator coverage (cat)", Util.Table.Right;
          "current-only share", Util.Table.Right;
        ]
  in
  let sweep sigma =
    let cfg = Core.Pipeline.Config.with_sigma sigma config in
    let a =
      Core.Pipeline.analyze cfg
        (Adc.Comparator.macro Adc.Comparator.default_options)
    in
    let venn =
      Testgen.Overlap.venn_of_partition
        (Testgen.Overlap.partition a.Core.Pipeline.outcomes_catastrophic)
    in
    Util.Table.add_row t
      [
        Printf.sprintf "%.0f" sigma;
        Util.Table.cell_pct (100. *. Testgen.Overlap.coverage venn);
        Util.Table.cell_pct (100. *. venn.Testgen.Overlap.current_only);
      ]
  in
  List.iter sweep [ 2.0; 3.0; 6.0 ];
  print_table t

let ablation_samples () =
  banner "Ablation A2: missing-code ramp length";
  note "Catching a 1.2 LSB offset and an erratic comparator vs sample count.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "samples", Util.Table.Right;
          "offset fault caught", Util.Table.Right;
          "erratic trips test", Util.Table.Right;
          "test time (us)", Util.Table.Right;
        ]
  in
  let prng = Util.Prng.create 11 in
  let sweep samples =
    let offset_adc =
      Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
        (Adc.Flash_adc.Functional (1.2 *. Adc.Params.lsb))
    in
    let erratic_adc =
      Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
        Adc.Flash_adc.Erratic
    in
    let caught = Adc.Flash_adc.missing_codes offset_adc prng ~samples <> [] in
    let erratic_trips =
      Adc.Flash_adc.missing_codes erratic_adc prng ~samples <> []
    in
    Util.Table.add_row t
      [
        string_of_int samples;
        (if caught then "yes" else "NO");
        (if erratic_trips then "yes" else "no");
        Printf.sprintf "%.0f"
          (Testgen.Test_time.missing_code_time ~samples *. 1e6);
      ]
  in
  List.iter sweep [ 256; 1000; 4096 ];
  print_table t

let ablation_near_miss config =
  banner "Ablation A3: non-catastrophic short model";
  note "The paper models near-miss shorts as 500 ohm || 1 fF.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "model", Util.Table.Left;
          "comparator coverage (non-cat)", Util.Table.Right;
        ]
  in
  let coverage_with ~resistance ~capacitance =
    let tech =
      {
        Process.Tech.cmos1um with
        Process.Tech.near_miss_resistance = resistance;
        near_miss_capacitance = capacitance;
      }
    in
    let cfg = Core.Pipeline.Config.with_tech tech config in
    let a =
      Core.Pipeline.analyze cfg
        (Adc.Comparator.macro Adc.Comparator.default_options)
    in
    let venn =
      Testgen.Overlap.venn_of_partition
        (Testgen.Overlap.partition a.Core.Pipeline.outcomes_non_catastrophic)
    in
    Testgen.Overlap.coverage venn
  in
  List.iter
    (fun (label, resistance, capacitance) ->
      Util.Table.add_row t
        [
          label;
          Util.Table.cell_pct (100. *. coverage_with ~resistance ~capacitance);
        ])
    [
      "500 ohm || 1 fF (paper)", 500.0, 1e-15;
      "500 ohm only", 500.0, 1e-30;
      "5 kohm || 1 fF", 5_000.0, 1e-15;
    ];
  print_table t

let ablation_defect_count ~quick =
  banner "Ablation A4: defect-sample size";
  note "The paper re-sprinkled 25k -> 10M defects to stabilize magnitudes.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "defects", Util.Table.Right;
          "fault classes", Util.Table.Right;
          "short share", Util.Table.Right;
        ]
  in
  let macro = Adc.Comparator.macro Adc.Comparator.default_options in
  let cell = Lazy.force macro.Macro.Macro_cell.cell in
  let netlist =
    macro.Macro.Macro_cell.build
      (Process.Variation.nominal Process.Tech.cmos1um)
  in
  let sweep n =
    let r =
      Defect.Simulate.run ~tech:Process.Tech.cmos1um
        ~stats:Process.Defect_stats.default ~cell ~netlist
        (Util.Prng.create 3) ~n
    in
    let classes = Fault.Collapse.collapse r.Defect.Simulate.instances in
    let short_share =
      match
        List.find_opt
          (fun (ft, _, _) -> ft = Fault.Types.Short)
          (Fault.Collapse.by_type classes)
      with
      | Some (_, share, _) -> share
      | None -> 0.0
    in
    Util.Table.add_row t
      [
        string_of_int n;
        string_of_int (List.length classes);
        Util.Table.cell_pct (100. *. short_share);
      ]
  in
  List.iter sweep
    (if quick then [ 5_000; 25_000 ] else [ 25_000; 100_000; 400_000 ]);
  print_table t

let reproduce ~quick ~no_ablations ~jobs =
  let config = if quick then quick_config else Core.Pipeline.Config.default in
  Format.printf
    "dotest benchmark harness — reproduction of Kuijstermans, Thijssen & \
     Sachdev, DATE 1995%s (jobs=%d)@."
    (if quick then " (quick mode)" else "")
    jobs;
  comparator_experiments ~quick config;
  global_experiments config;
  quality_experiment ();
  amplifier_experiment ~quick config;
  if not no_ablations then begin
    ablation_sigma config;
    ablation_samples ();
    ablation_near_miss config;
    ablation_defect_count ~quick
  end;
  Format.printf "@.done.@."

(* ------------------------------------------------------------------ *)
(* Scaling study (--scaling)                                            *)
(* ------------------------------------------------------------------ *)

(* Raw-solve sweep: for each size, solve a batch of near-miss-bridge
   variants of the generated ADC cold under both solver policies, then
   once more under auto with a shared-nominal context installed (one
   skeleton derivation amortized over the whole batch + warm starts).
   This is the per-class solve pattern of the evaluate stage, isolated
   from sprinkling and classification, so the oracle-vs-auto-vs-shared
   crossover is directly visible per N. *)
let scaling_variants = 12

let scaling_netlists bits =
  let nominal =
    Adc.Scaled.bench_netlist ~bits
      (Process.Variation.nominal Process.Tech.cmos1um)
  in
  let t = Adc.Scaled.taps bits in
  let variants =
    List.init scaling_variants (fun k ->
        let i = 1 + (k * (t - 3) / scaling_variants) in
        let nl = Circuit.Netlist.copy nominal in
        Circuit.Netlist.add_resistor nl
          ~name:(Printf.sprintf "FLT_Rbridge%d" k)
          (Circuit.Netlist.node nl (Printf.sprintf "tap%d" i))
          (Circuit.Netlist.node nl (Printf.sprintf "tap%d" (i + 1)))
          500.0;
        nl)
  in
  nominal, variants

let timed_batch ?shared solver variants =
  let run () =
    Circuit.Engine.with_solver solver @@ fun () ->
    let solve_all () =
      List.fold_left
        (fun acc nl ->
          let _, diag = Circuit.Engine.dc_operating_point_diag nl in
          acc + diag.Circuit.Engine.iterations)
        0 variants
    in
    match shared with
    | None -> solve_all ()
    | Some sn -> Circuit.Engine.with_shared_nominal sn solve_all
  in
  let iterations, elapsed = seconds run in
  Util.Json.Obj
    [
      "s_per_solve",
      Util.Json.Float (elapsed /. float_of_int (List.length variants));
      "newton_iterations", Util.Json.Int iterations;
    ]

(* The oracle refactors densely every Newton iteration: past this size
   one sweep row alone would take minutes, so the oracle is measured
   only up to here and reported null above it (noted in the row, not
   silently dropped). *)
let oracle_max_n = 1200

let scaling_row bits =
  let nominal, variants = scaling_netlists bits in
  let n = Circuit.Netlist.node_count nominal + 2 in
  let sn = Circuit.Engine.shared_nominal ~strip:Fault.Inject.is_fault_device () in
  let oracle =
    if n <= oracle_max_n then timed_batch Circuit.Engine.Oracle variants
    else Util.Json.Null
  in
  let auto = timed_batch Circuit.Engine.Auto variants in
  let auto_shared = timed_batch ~shared:sn Circuit.Engine.Auto variants in
  Format.eprintf "scaling: bits=%d n=%d done@." bits n;
  Util.Json.Obj
    [
      "bits", Util.Json.Int bits;
      "n_unknowns", Util.Json.Int n;
      "oracle", oracle;
      "oracle_skipped", Util.Json.Bool (n > oracle_max_n);
      "auto", auto;
      "auto_shared", auto_shared;
    ]

(* One pipeline run (no cache) under [solver]; returns the evaluate-stage
   wall-clock plus the deterministic counters behind the throughput
   numbers. *)
let pipeline_measure config macro solver =
  let memory = Util.Telemetry.in_memory () in
  let cfg =
    Core.Pipeline.Config.(
      config |> with_solver solver
      |> with_telemetry (Util.Telemetry.memory_sink memory))
  in
  let analysis = Core.Pipeline.analyze cfg macro in
  let stage name =
    try List.assoc name analysis.Core.Pipeline.health.Core.Pipeline.stage_seconds
    with Not_found -> 0.0
  in
  let m = Util.Telemetry.metrics memory in
  let counter name =
    try List.assoc name m.Util.Telemetry.Metrics.counters with Not_found -> 0
  in
  let evaluate_s = stage "evaluate-cat" +. stage "evaluate-ncat" in
  ( evaluate_s,
    Util.Json.Obj
      [
        "evaluate_s", Util.Json.Float evaluate_s;
        "total_classes",
        Util.Json.Int analysis.Core.Pipeline.health.Core.Pipeline.classes;
        "solves", Util.Json.Int (counter "engine.solves");
        "newton_iterations", Util.Json.Int (counter "newton_iterations");
        ( "shared_nominal_hits",
          Util.Json.Int (counter "engine.shared_nominal_hits") );
      ] )

let pipeline_ab config macro =
  ignore (Lazy.force macro.Macro.Macro_cell.cell);
  let oracle_s, oracle = pipeline_measure config macro Circuit.Engine.Oracle in
  let auto_s, auto = pipeline_measure config macro Circuit.Engine.Auto in
  Util.Json.Obj
    [
      "macro", Util.Json.String macro.Macro.Macro_cell.name;
      "defects", Util.Json.Int config.Core.Pipeline.Config.defects;
      "oracle", oracle;
      "auto", auto;
      ( "evaluate_speedup_auto_vs_oracle",
        if auto_s > 0.0 then Util.Json.Float (oracle_s /. auto_s)
        else Util.Json.Null );
    ]

let scaling_run ~quick ~jobs =
  let bits_list = if quick then [ 5; 7; 9 ] else [ 5; 7; 9; 10; 11 ] in
  let rows = List.map scaling_row bits_list in
  let comparator_ab =
    pipeline_ab quick_config
      (Adc.Comparator.macro Adc.Comparator.default_options)
  in
  Format.eprintf "scaling: comparator A/B done@.";
  let scaled_config =
    Core.Pipeline.Config.(
      default |> with_defects 4_000 |> with_good_space_dies 8)
  in
  (* The pipeline A/B targets the regime where per-iteration
     factorization dominates per-class fixed costs; below ~1000 unknowns
     the oracle hides behind warm-started two-iteration Newton runs. Full
     mode goes one size further out, where the n³ term is unambiguous. *)
  let scaled_bits = if quick then 10 else 11 in
  let scaled_ab =
    pipeline_ab scaled_config (Adc.Scaled.macro ~bits:scaled_bits ())
  in
  Format.eprintf "scaling: scaled A/B done@.";
  let json =
    Util.Json.Obj
      [
        "schema", Util.Json.String "dotest-bench/9";
        "mode", Util.Json.String "scaling";
        "jobs", Util.Json.Int jobs;
        "quick", Util.Json.Bool quick;
        ( "raw_solves",
          Util.Json.Obj
            [
              "variants_per_row", Util.Json.Int scaling_variants;
              "rows", Util.Json.List rows;
            ] );
        ( "pipelines",
          Util.Json.Obj
            [
              "comparator_quick", comparator_ab;
              "scaled", scaled_ab;
            ] );
      ]
  in
  print_endline (Util.Json.to_string json)

(* ------------------------------------------------------------------ *)

let () =
  let open Cmdliner in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let quick = flag "quick" "Smaller defect counts (fast smoke run)."
  and no_ablations = flag "no-ablations" "Skip the ablation sweeps."
  and scaling =
    flag "scaling"
      "Emit the solver-scaling study as one JSON object (schema \
       dotest-bench/9) instead of the paper reproduction."
  and jobs =
    Arg.(
      value
      & opt positive_int (Util.Pool.default_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: cores minus one, at least 1).")
  in
  let run quick no_ablations scaling jobs =
    Util.Pool.set_jobs jobs;
    if scaling then scaling_run ~quick ~jobs
    else reproduce ~quick ~no_ablations ~jobs
  in
  let info =
    Cmd.info "bench"
      ~doc:"Reproduce the paper's evaluation, or run the solver-scaling study."
  in
  exit (Cmd.eval (Cmd.v info Term.(const run $ quick $ no_ablations $ scaling $ jobs)))
