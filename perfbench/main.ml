(* dotest performance benchmark.

   One command runs one named workload against the library's public entry
   points for a fixed measuring time, checks that every repetition produced
   the same tables, and prints its metrics by name and unit. The last line
   of standard output is one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end ones, measured on the
   untraced public entry points. With --trace 1 they are the per-layer ones:
   the benchmark re-runs the analysis stage by stage, timing each call into a
   layer from this file and reading the library's own counters through an
   in-memory Util.Telemetry sink. README.md maps every metric to its layer
   and to the end-to-end metric it should move.

     main.exe run --workload global-fig4 --seed 1 --seconds 30 --trace 0
     main.exe self-test *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

(* The pool size is the machine's core count, recorded with every result. *)
let jobs = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Statistics and process facts                                        *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile, p in [0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* High-water mark of the process's resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

(* Resets the kernel's resident-set high-water mark of this process, so
   that [peak_rss_mb] reports the peak of what runs after the reset. (No
   collection is forced first: a forced major cycle raises the next peak
   rather than lowering it.) *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Scratch space lives inside the working directory: caches and the
   service socket (a relative path, so the 108-byte sun_path limit never
   depends on where the checkout sits). *)
let scratch_root = ".bench_tmp"

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let counter = ref 0 in
  fun label ->
    incr counter;
    (try Unix.mkdir scratch_root 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let dir =
      Filename.concat scratch_root
        (Printf.sprintf "%d-%s-%d" (Unix.getpid ()) label !counter)
    in
    remove_tree dir;
    Unix.mkdir dir 0o755;
    dir

let with_scratch label f =
  let dir = fresh_dir label in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Metrics and the result line                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let print_result r =
  List.iter
    (fun x -> Printf.printf "metric %-34s %.6g %s\n" x.name x.value x.unit_)
    r.metrics;
  let number v = if Float.is_finite v then Util.Json.Float v else Util.Json.Null in
  let json =
    Util.Json.Obj
      [
        "correct", Util.Json.Bool r.correct;
        "attempted", Util.Json.Int r.attempted;
        "failed", Util.Json.Int r.failed;
        ( "metrics",
          Util.Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Util.Json.Obj
                     [ "value", number x.value; "unit", Util.Json.String x.unit_ ]
                 ))
               r.metrics) );
      ]
  in
  print_endline (Util.Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Tables and their digest                                              *)
(* ------------------------------------------------------------------ *)

(* The deterministic artefacts of an analysis, titled and ordered as the
   CLI and the service print them: coverage tables plus run health, never
   wall-clock or cache tables. Two runs agree iff these are identical. *)
let global_tables analyses =
  let g = Core.Global.combine analyses in
  [
    "Fig. 4: global detectability", Core.Report.figure4 g;
    "Per-macro current detectability", Core.Report.macro_current g;
    "Summary", Core.Report.summary g;
    "Run health", Core.Report.run_health (Core.Pipeline.run_health analyses);
    "Coverage bounds", Core.Report.coverage_bounds g;
  ]

let macro_tables a =
  [
    "Table 1: catastrophic faults and fault classes", Core.Report.table1 a;
    "Table 2: voltage fault signatures", Core.Report.table2 a;
    "Table 3: current fault signatures", Core.Report.table3 a;
    "Fig. 3: detectability of catastrophic faults", Core.Report.figure3 a;
    "Run health", Core.Report.run_health (Core.Pipeline.run_health [ a ]);
  ]

let render tables =
  List.map
    (fun (title, t) -> { Core.Request.title; body = Core.Report.render ~format:`Text t })
    tables

let digest (tables : Core.Request.table list) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.concat_map (fun t -> [ t.Core.Request.title; t.body ]) tables)))

(* ------------------------------------------------------------------ *)
(* Analysis targets                                                     *)
(* ------------------------------------------------------------------ *)

type target = Global | Single of (unit -> Macro.Macro_cell.t)

let macros_of = function
  | Global -> Dft.Measures.original ()
  | Single make -> [ make () ]

let tables_of target analyses =
  match target, analyses with
  | Global, _ -> global_tables analyses
  | Single _, [ a ] -> macro_tables a
  | Single _, _ -> invalid_arg "single-macro target with several analyses"

(* Set-up: macro construction plus layout synthesis (forcing each cell).
   Returns the macros and the synthesis seconds of each. *)
let setup target =
  let macros = macros_of target in
  let synth =
    List.map
      (fun (mc : Macro.Macro_cell.t) ->
        snd (timed (fun () -> ignore (Lazy.force mc.Macro.Macro_cell.cell))))
      macros
  in
  macros, synth

(* The untraced public entry point: Pipeline.analyze_all for the global
   run, Pipeline.analyze for a single macro. *)
let pipeline_run target config macros =
  match target with
  | Global -> Core.Pipeline.analyze_all config macros
  | Single _ -> List.map (Core.Pipeline.analyze config) macros

(* ------------------------------------------------------------------ *)
(* The staged (traced) analysis                                         *)
(* ------------------------------------------------------------------ *)

(* Per-macro layer timings of one staged analysis. *)
type stage = {
  extract_s : float;
  sprinkle_s : float;
  collapse_s : float;
  good_space_s : float;
  evaluate_start : float;
  evaluate_end : float;
  class_seconds : float list;
  shapes : int;
  instances : int;
}

let count_status outcomes =
  List.fold_left
    (fun (r, d, u) (o : Macro.Evaluate.outcome) ->
      match o.Macro.Evaluate.status with
      | Macro.Evaluate.Converged -> r, d, u
      | Macro.Evaluate.Recovered _ -> r + 1, d + 1, u
      | Macro.Evaluate.Unresolved { attempts; _ } ->
        (if attempts > 1 then r + 1 else r), d, u + 1)
    (0, 0, 0) outcomes

(* Pipeline.analyze re-done stage by stage through each layer's public
   functions, with the same PRNG stream assignment, so the result must
   reproduce the untraced run's tables. Layout extraction is timed as its
   own call; Defect.Simulate.run extracts again internally, which is why
   draw time is sprinkle minus extract. The evaluate stage mirrors
   Macro.Evaluate.run (shared nominal context, solver re-installed in every
   worker) around per-class Macro.Evaluate.evaluate_class timings. *)
let staged_analyze (config : Core.Pipeline.Config.t) (macro : Macro.Macro_cell.t)
    =
  let open Core.Pipeline.Config in
  let prng = Util.Prng.create config.seed in
  let defect_prng = Util.Prng.split prng in
  let good_prng = Util.Prng.split prng in
  let cell = Lazy.force macro.Macro.Macro_cell.cell in
  let netlist = macro.Macro.Macro_cell.build (Process.Variation.nominal config.tech) in
  let _, extract_s = timed (fun () -> Layout.Extract.extract cell) in
  let defects, sprinkle_s =
    timed (fun () ->
        Defect.Simulate.run ~chunk_size:config.sprinkle_chunk ~tech:config.tech
          ~stats:config.stats ~cell ~netlist defect_prng ~n:config.defects)
  in
  let (cat, ncat), collapse_s =
    timed (fun () ->
        let cat = Fault.Collapse.collapse defects.Defect.Simulate.instances in
        cat, Fault.Collapse.derive_non_catastrophic ~tech:config.tech cat)
  in
  let good, good_space_s =
    timed (fun () ->
        Circuit.Engine.with_solver config.solver (fun () ->
            Macro.Good_space.compile ~n:config.good_space_dies ~k:config.sigma
              ~tech:config.tech macro good_prng))
  in
  let solver = config.solver in
  (* One Macro.Evaluate.run per severity, as the pipeline calls it. *)
  let evaluate classes =
    let nominal =
      macro.Macro.Macro_cell.build (Process.Variation.nominal Process.Tech.cmos1um)
    in
    let golden =
      Circuit.Engine.with_solver solver (fun () -> macro.Macro.Macro_cell.measure nominal)
    in
    let shared = Circuit.Engine.shared_nominal ~strip:Fault.Inject.is_fault_device () in
    Util.Pool.parallel_mapi
      (fun index fc ->
        Circuit.Engine.with_solver solver @@ fun () ->
        Circuit.Engine.with_shared_nominal shared @@ fun () ->
        timed (fun () ->
            Macro.Evaluate.evaluate_class ~retries:config.max_retries ~index ~macro
              ~nominal ~good ~golden fc))
      classes
  in
  let evaluate_start = now () in
  let cat_timed = evaluate cat in
  let ncat_timed = evaluate ncat in
  let evaluate_end = now () in
  let outcomes_catastrophic = List.map fst cat_timed in
  let outcomes_non_catastrophic = List.map fst ncat_timed in
  let retried, degraded, unresolved =
    count_status (outcomes_catastrophic @ outcomes_non_catastrophic)
  in
  let analysis =
    {
      Core.Pipeline.macro;
      sprinkled = defects.Defect.Simulate.sprinkled;
      effective = defects.Defect.Simulate.effective;
      good;
      classes_catastrophic = cat;
      classes_non_catastrophic = ncat;
      outcomes_catastrophic;
      outcomes_non_catastrophic;
      health =
        {
          Core.Pipeline.macro_name = macro.Macro.Macro_cell.name;
          classes = List.length cat + List.length ncat;
          retried;
          degraded;
          unresolved;
          stage_seconds = [];
        };
    }
  in
  ( analysis,
    {
      extract_s;
      sprinkle_s;
      collapse_s;
      good_space_s;
      evaluate_start;
      evaluate_end;
      class_seconds = List.map snd (cat_timed @ ncat_timed);
      shapes = Array.length (Layout.Cell.shapes cell);
      instances = List.length defects.Defect.Simulate.instances;
    } )

(* The staged run under the same schedule as the untraced one: macros fan
   out over the pool for the global run (their stages then run
   sequentially), a single macro runs its stages on the pool itself. *)
let staged_run target config macros =
  match target with
  | Global -> Util.Pool.parallel_map (staged_analyze config) macros
  | Single _ -> List.map (staged_analyze config) macros

let counter (metrics : Util.Telemetry.Metrics.t) name =
  try List.assoc name metrics.Util.Telemetry.Metrics.counters with Not_found -> 0

(* One cold DC operating point on each macro's nominal netlist, called
   directly (no sink installed, so the engine counters stay the staged
   run's). *)
let nominal_solves (config : Core.Pipeline.Config.t) macros =
  List.fold_left
    (fun (seconds, iterations) (mc : Macro.Macro_cell.t) ->
      let netlist =
        mc.Macro.Macro_cell.build (Process.Variation.nominal config.Core.Pipeline.Config.tech)
      in
      let (_, diag), s =
        timed (fun () ->
            Circuit.Engine.with_solver config.Core.Pipeline.Config.solver (fun () ->
                Circuit.Engine.dc_operating_point_diag netlist))
      in
      seconds +. s, iterations + diag.Circuit.Engine.iterations)
    (0.0, 0) macros

(* Public codec and cache calls on the analyses' payloads (summed over the
   macros, median of five trials). A payload that does not decode back to
   itself is a correctness failure. *)
let codec_cache_probe analyses =
  let payloads =
    List.map
      (fun (a : Core.Pipeline.macro_analysis) ->
        {
          Core.Codec.sprinkled = a.Core.Pipeline.sprinkled;
          effective = a.effective;
          good = a.good;
          classes_catastrophic = a.classes_catastrophic;
          classes_non_catastrophic = a.classes_non_catastrophic;
          outcomes_catastrophic = a.outcomes_catastrophic;
          outcomes_non_catastrophic = a.outcomes_non_catastrophic;
        })
      analyses
  in
  let round_trip_ok = ref true in
  let trial k =
    with_scratch "codec" @@ fun dir ->
    let cache = Util.Cache.create ~dir ~version:Core.Codec.version () in
    let keyed = List.mapi (fun i p -> Printf.sprintf "k%d-%d" k i, p) payloads in
    let encoded, encode_s =
      timed (fun () ->
          List.map (fun (_, p) -> Util.Json.to_string (Core.Codec.analysis_to_json p)) keyed)
    in
    let decoded, decode_s =
      timed (fun () ->
          List.map
            (fun s -> Result.bind (Util.Json.of_string s) Core.Codec.analysis_of_json)
            encoded)
    in
    List.iter2
      (fun d (_, p) -> if d <> Ok p then round_trip_ok := false)
      decoded keyed;
    let values = List.map (fun (key, p) -> key, Core.Codec.analysis_to_json p) keyed in
    let (), store_s =
      timed (fun () -> List.iter (fun (key, v) -> Util.Cache.store cache ~key v) values)
    in
    (* A fresh handle: the lookup reads and parses the entry from disk, as
       a new process or an evicted key does. *)
    let reader = Util.Cache.create ~dir ~version:Core.Codec.version () in
    let found, find_s =
      timed (fun () -> List.map (fun (key, _) -> Util.Cache.find reader ~key) keyed)
    in
    List.iter2 (fun f (_, v) -> if f <> Some v then round_trip_ok := false) found values;
    encode_s, decode_s, store_s, find_s
  in
  let trials = List.init 5 trial in
  let med f = median (List.map f trials) in
  ( !round_trip_ok,
    [
      m "codec.encode_s" "s" (med (fun (e, _, _, _) -> e));
      m "codec.decode_s" "s" (med (fun (_, d, _, _) -> d));
      m "cache.store_s" "s" (med (fun (_, _, s, _) -> s));
      m "cache.find_s" "s" (med (fun (_, _, _, f) -> f));
    ] )

(* Per-layer metrics of one analysis: [untraced] is a Pipeline run (its
   health.stage_seconds cross-check the staged timings), [staged] the
   traced run with its engine counters, [synth] the set-up's synthesis
   seconds per macro. *)
let analysis_layer_metrics ~config ~macros ~synth ~untraced ~staged
    ~(counters : Util.Telemetry.Metrics.t) =
  let stages = List.map snd staged in
  let analyses = List.map fst staged in
  let total f = sum (List.map f stages) in
  let itotal f = List.fold_left (fun acc s -> acc + f s) 0 stages in
  let extract_s = total (fun s -> s.extract_s) in
  let sprinkle_s = total (fun s -> s.sprinkle_s) in
  let class_seconds = List.concat_map (fun s -> s.class_seconds) stages in
  let classes = List.length class_seconds in
  let evaluate_s =
    List.fold_left (fun acc s -> Float.max acc s.evaluate_end) neg_infinity stages
    -. List.fold_left (fun acc s -> Float.min acc s.evaluate_start) infinity stages
  in
  let cat_classes =
    List.fold_left
      (fun acc (a : Core.Pipeline.macro_analysis) ->
        acc + List.length a.Core.Pipeline.classes_catastrophic)
      0 analyses
  in
  let health = Core.Pipeline.run_health analyses in
  let sprinkled = List.fold_left (fun acc (a : Core.Pipeline.macro_analysis) -> acc + a.sprinkled) 0 analyses in
  let effective = List.fold_left (fun acc (a : Core.Pipeline.macro_analysis) -> acc + a.effective) 0 analyses in
  let c = counter counters in
  let iterations = c "newton_iterations" in
  let per_iteration name = fratio (c name) iterations in
  let nominal_s, nominal_iterations = nominal_solves config macros in
  let stage_total name =
    sum
      (List.map
         (fun (a : Core.Pipeline.macro_analysis) ->
           try List.assoc name a.Core.Pipeline.health.Core.Pipeline.stage_seconds
           with Not_found -> 0.0)
         untraced)
  in
  let macro_seconds =
    List.map
      (fun (a : Core.Pipeline.macro_analysis) ->
        sum (List.map snd a.Core.Pipeline.health.Core.Pipeline.stage_seconds))
      untraced
  in
  let macro_max = List.fold_left Float.max 0.0 macro_seconds in
  let lanes = float_of_int (min jobs (List.length macros)) in
  let coverage_pct =
    100.0 *. Core.Global.coverage (Core.Global.combine analyses) Fault.Types.Catastrophic
  in
  List.iter2
    (fun (a : Core.Pipeline.macro_analysis) s ->
      Printf.printf "macro %-16s pipeline %.3f s (staged: extract %.3f, sprinkle %.3f, evaluate %.3f)\n"
        a.Core.Pipeline.macro.Macro.Macro_cell.name
        (sum (List.map snd a.Core.Pipeline.health.Core.Pipeline.stage_seconds))
        s.extract_s s.sprinkle_s (s.evaluate_end -. s.evaluate_start))
    untraced stages;
  [
    m "layout.synth_s" "s" (sum synth);
    m "layout.extract_s" "s" extract_s;
    m "layout.shapes" "count" (float_of_int (itotal (fun s -> s.shapes)));
    m "defect.sprinkle_s" "s" sprinkle_s;
    m "defect.draw_s" "s" (sprinkle_s -. extract_s);
    m "defect.effective_ratio" "ratio" (fratio effective sprinkled);
    m "fault.collapse_s" "s" (total (fun s -> s.collapse_s));
    m "fault.classes" "count" (float_of_int classes);
    m "fault.instances_per_class" "ratio"
      (fratio (itotal (fun s -> s.instances)) cat_classes);
    m "good_space.s" "s" (total (fun s -> s.good_space_s));
    m "good_space.s_per_die" "s"
      (ratio (total (fun s -> s.good_space_s))
         (float_of_int
            (config.Core.Pipeline.Config.good_space_dies * List.length macros)));
    m "evaluate.s" "s" evaluate_s;
    m "evaluate.classes_per_s" "1/s" (ratio (float_of_int classes) evaluate_s);
    m "evaluate.class_p50_s" "s" (median class_seconds);
    m "evaluate.class_max_s" "s" (List.fold_left Float.max 0.0 class_seconds);
    m "evaluate.retried" "count" (float_of_int health.Core.Pipeline.total_retried);
    m "evaluate.unresolved" "count" (float_of_int health.Core.Pipeline.total_unresolved);
    m "engine.newton_iterations" "count" (float_of_int iterations);
    m "engine.newton_per_class" "ratio" (fratio iterations classes);
    m "engine.solves" "count" (float_of_int (c "engine.solves"));
    m "engine.refactor_ratio" "ratio" (per_iteration "engine.factorizations");
    m "engine.rank1_ratio" "ratio" (per_iteration "engine.rank1_solves");
    m "engine.bypass_ratio" "ratio" (per_iteration "engine.jacobian_bypass");
    m "engine.shared_nominal_hit_ratio" "ratio"
      (fratio (c "engine.shared_nominal_hits")
         (c "engine.shared_nominal_hits" + c "engine.shared_nominal_misses"));
    m "engine.nominal_solve_s" "s" nominal_s;
    m "engine.s_per_iteration" "s" (ratio nominal_s (float_of_int nominal_iterations));
    m "engine.no_convergence" "count" (float_of_int (c "engine.no_convergence"));
    m "engine.fallback_gmin" "count" (float_of_int (c "engine.fallback_gmin"));
    m "engine.fallback_source" "count" (float_of_int (c "engine.fallback_source"));
    m "pool.busy_share" "ratio"
      (ratio (sum class_seconds) (evaluate_s *. float_of_int jobs));
    m "pool.macro_imbalance" "ratio" (ratio macro_max (sum macro_seconds /. lanes));
    m "pipeline.sprinkle_s" "s" (stage_total "sprinkle");
    m "pipeline.collapse_s" "s" (stage_total "collapse");
    m "pipeline.good_space_s" "s" (stage_total "good-space");
    m "pipeline.evaluate_cat_s" "s" (stage_total "evaluate-cat");
    m "pipeline.evaluate_ncat_s" "s" (stage_total "evaluate-ncat");
    m "pipeline.macro_max_s" "s" macro_max;
    m "testgen.coverage_cat_pct" "%" coverage_pct;
    m "testgen.paper_gap_pp" "pp" (93.3 -. coverage_pct);
  ]

(* The traced comparison of one analysis: an untraced Pipeline run, the
   same run with an in-memory sink installed, and the staged run under
   another sink; all three must agree on every table. Returns whether they
   agreed, the untraced analyses, and the layer metrics with the tracing
   overhead. *)
let traced_analysis target config macros synth =
  let run config =
    timed (fun () ->
        let a = pipeline_run target config macros in
        a, digest (render (tables_of target a)))
  in
  let (untraced, untraced_digest), untraced_s = run config in
  (* The tracing overhead: the same Pipeline call with the in-memory sink
     installed, against the untraced call above. *)
  let (_, sinked_digest), sinked_s =
    run
      (Core.Pipeline.Config.with_telemetry
         (Util.Telemetry.memory_sink (Util.Telemetry.in_memory ()))
         config)
  in
  if sinked_digest <> untraced_digest then
    Printf.printf "MISMATCH: traced pipeline digest %s differs from untraced %s\n"
      sinked_digest untraced_digest;
  let memory = Util.Telemetry.in_memory () in
  let staged, staged_digest =
    Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) @@ fun () ->
    Util.Telemetry.with_span "perfbench.staged" @@ fun () ->
    let s = staged_run target config macros in
    s, digest (render (tables_of target (List.map fst s)))
  in
  if untraced_digest <> staged_digest then
    Printf.printf "MISMATCH: staged digest %s differs from pipeline digest %s\n"
      staged_digest untraced_digest
  else Printf.printf "digest %s (pipeline = staged)\n" untraced_digest;
  let layers =
    analysis_layer_metrics ~config ~macros ~synth ~untraced ~staged
      ~counters:(Util.Telemetry.metrics memory)
  in
  ( untraced_digest = staged_digest && untraced_digest = sinked_digest,
    untraced,
    layers
    @ [
        m "trace.overhead_pct" "%" (100.0 *. ratio (sinked_s -. untraced_s) untraced_s);
      ] )

(* Set-up is timed in several slices spread over the run (before every
   repetition, or before and after the request loop), and reported as the
   median of all its samples, so that one slow moment of the machine does
   not set the figure. [sample] runs [f] at least [repeats] times and for
   at least [slice] seconds, adds each time to [samples], and returns the
   last result ([discard] disposes of the others). *)
let sample ?(discard = ignore) ~repeats ~slice samples f =
  let t0 = now () in
  let rec go n =
    let r, s = timed f in
    samples := s :: !samples;
    if n + 1 >= repeats && now () -. t0 >= slice then r
    else begin
      discard r;
      go (n + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The service workload                                                 *)
(* ------------------------------------------------------------------ *)

type serve_size = {
  global_defects : int;
  comparator_defects : int;
  dies : int;
  hot_keys : int;
  min_requests : int;
}

let serve_full =
  { global_defects = 150; comparator_defects = 150; dies = 4; hot_keys = 4; min_requests = 100 }

let serve_tiny =
  { global_defects = 60; comparator_defects = 80; dies = 2; hot_keys = 2; min_requests = 12 }

let small_request size ~global ~seed =
  Core.Request.(
    default
    |> with_target (if global then Global { dft = false } else Comparator { dft = false })
    |> with_defects (if global then size.global_defects else size.comparator_defects)
    |> with_good_space_dies size.dies |> with_seed seed)

let config_of_request (r : Core.Request.t) =
  Core.Pipeline.Config.(
    default |> with_defects r.defects |> with_good_space_dies r.good_space_dies
    |> with_sigma r.sigma |> with_seed r.seed |> with_max_retries r.max_retries
    |> with_strict r.strict
    |> with_inject_failures r.inject_failures
    |> with_deadline r.deadline |> with_solver r.solver)

let target_of_request (r : Core.Request.t) =
  match r.Core.Request.target with
  | Core.Request.Global _ -> Global
  | Core.Request.Comparator _ ->
    Single (fun () -> Adc.Comparator.macro Adc.Comparator.default_options)

(* The tables a request must produce, computed in-process. *)
let reference_tables r =
  let target = target_of_request r in
  let config = config_of_request r in
  render (tables_of target (pipeline_run target config (macros_of target)))

type kind = Hot | Cold | Dup

type sample = {
  kind : kind;
  request : Core.Request.t;
  latency : float;
  response : Core.Request.response;
}

type service = {
  service : Core.Service.t;
  address : Core.Service.address;
  server : Thread.t;
  dir : string;
}

(* Set-up of the service: start it on a Unix socket with a fresh result
   cache and wait until it listens, then warm the hot keys. *)
let start_service hot =
  let dir = fresh_dir "serve" in
  let cache =
    Util.Cache.create ~dir:(Filename.concat dir "cache") ~version:Core.Codec.version ()
  in
  let service = Core.Service.create ~cache ~jobs ~max_pending:16 () in
  let address = Core.Service.Unix_socket (Filename.concat dir "s.sock") in
  let ready = Mutex.create () and changed = Condition.create () in
  let state = ref `Starting in
  let set s = Mutex.protect ready (fun () -> state := s; Condition.broadcast changed) in
  let server =
    Thread.create
      (fun () ->
        try Core.Service.serve ~on_ready:(fun _ -> set `Listening) service address
        with e -> set (`Failed e))
      ()
  in
  (match
     Mutex.protect ready (fun () ->
         while !state = `Starting do
           Condition.wait changed ready
         done;
         !state)
   with
  | `Failed e -> raise e
  | `Listening | `Starting -> ());
  let warm_ok =
    List.for_all
      (fun r -> Result.is_ok (Core.Service.call address r))
      hot
  in
  { service; address; server; dir }, warm_ok

let stop_service s =
  Core.Service.initiate_shutdown s.service;
  Thread.join s.server;
  remove_tree s.dir

(* The request mix. Rounds send one request per client, concurrently; a
   client waits for its reply before the next round (closed loop, two
   clients). Rounds come in blocks of ten, shuffled by the seed: seven
   rounds of two hot keys, two of a hot key beside a fresh cold key (the
   cold one first in one of them, second in the other), and one of a fresh
   key sent by both clients at once, which coalesces. Every seed thus sends
   the same proportions, in another order and with other cold keys. Cold
   keys alternate between small global and comparator requests. The hot
   keys are the same for every seed (a fixed set of popular requests), so
   that warming them is the same work in every run. *)
let block =
  List.init 7 (fun _ -> Hot, Hot) @ [ Hot, Cold; Cold, Hot; Dup, Dup ]

let shuffled prng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Prng.int prng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

type mix = {
  hot : Core.Request.t array;
  prng : Util.Prng.t;
  mutable pending : (kind * kind) list;
  mutable fresh : int;
  base : int;
  size : serve_size;
}

let make_mix size seed =
  let prng = Util.Prng.create seed in
  let base = Util.Prng.int prng 1_000_000 in
  {
    hot =
      Array.init size.hot_keys (fun i ->
          small_request size ~global:(i mod 2 = 0) ~seed:(i + 1));
    prng;
    pending = [];
    fresh = 0;
    base;
    size;
  }

let round_kinds mix =
  if mix.pending = [] then mix.pending <- shuffled mix.prng block;
  match mix.pending with
  | r :: rest ->
    mix.pending <- rest;
    r
  | [] -> assert false

let fresh_request mix =
  mix.fresh <- mix.fresh + 1;
  small_request mix.size ~global:(mix.fresh mod 2 = 0) ~seed:(mix.base + 1000 + mix.fresh)

let next_round mix =
  let pick = function
    | Hot -> mix.hot.(Util.Prng.int mix.prng (Array.length mix.hot))
    | Cold | Dup -> fresh_request mix
  in
  match round_kinds mix with
  | Dup, _ ->
    let r = fresh_request mix in
    [ Dup, r; Dup, r ]
  | a, b ->
    let ra = pick a in
    let rb = pick b in
    [ a, ra; b, rb ]

(* Drive the mix until [seconds] have passed and at least [min_requests]
   were sent. Returns the samples, the measured wall time and the median of
   the resident-set peaks of four windows of the loop (the kernel's mark is
   reset at the start of each). *)
let drive service mix ~seconds =
  let samples = ref [] in
  let peaks = ref [] in
  let t0 = now () in
  let window = ref t0 in
  reset_peak_rss ();
  let count = ref 0 in
  while now () -. t0 < seconds || !count < mix.size.min_requests do
    if now () -. !window >= seconds /. 4.0 then begin
      peaks := peak_rss_mb () :: !peaks;
      reset_peak_rss ();
      window := now ()
    end;
    let round = next_round mix in
    let results = Array.make (List.length round) None in
    let threads =
      List.mapi
        (fun i (kind, request) ->
          Thread.create
            (fun () ->
              let response, latency =
                timed (fun () -> Core.Service.call service.address request)
              in
              results.(i) <- Some { kind; request; latency; response })
            ())
        round
    in
    List.iter Thread.join threads;
    Array.iter (Option.iter (fun s -> samples := s :: !samples)) results;
    count := !count + List.length round
  done;
  let wall = now () -. t0 in
  List.rev !samples, wall, median (peak_rss_mb () :: !peaks)

(* Every reply must carry the tables computed in-process for its request
   fingerprint; returns the number of error or mismatched replies. The
   references run on the pool, one request per worker. *)
let check_replies samples =
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace distinct (Core.Request.fingerprint s.request) s.request)
    samples;
  let keyed =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun key r acc -> (key, r) :: acc) distinct [])
  in
  let references = Hashtbl.create 64 in
  List.iter2
    (fun (key, _) tables -> Hashtbl.replace references key tables)
    keyed
    (Util.Pool.parallel_map (fun (_, r) -> reference_tables r) keyed);
  List.fold_left
    (fun bad s ->
      let key = Core.Request.fingerprint s.request in
      match s.response with
      | Ok reply when reply.Core.Request.tables = Hashtbl.find references key -> bad
      | Ok _ ->
        Printf.printf "MISMATCH: reply for %s differs from the in-process tables\n" key;
        bad + 1
      | Error e ->
        Printf.printf "ERROR reply: %s\n" e.Core.Request.message;
        bad + 1)
    0 samples

type serve_outcome = {
  samples : sample list;
  wall : float;
  stats : Core.Service.stats;
  bad : int;
  setup_s : float;
  warm_ok : bool;
  peak_rss : float;
}

(* With [repeat_setup], the set-up is timed twice before the request loop
   and twice after it (each extra service warmed and stopped again). *)
let serve_run size ~seed ~seconds ~repeat_setup =
  let mix = make_mix size seed in
  let hot = Array.to_list mix.hot in
  let setups = ref [] in
  let warm_ok = ref true in
  let start () =
    let s, ok = start_service hot in
    warm_ok := !warm_ok && ok;
    s
  in
  let set_up () =
    Gc.full_major ();
    sample ~repeats:(if repeat_setup then 2 else 1) ~slice:0.0 setups
      ~discard:stop_service start
  in
  let service = set_up () in
  let (samples, wall, peak_rss), stats =
    Fun.protect ~finally:(fun () -> stop_service service) (fun () ->
        let r = drive service mix ~seconds in
        r, Core.Service.stats service.service)
  in
  if repeat_setup then stop_service (set_up ());
  {
    samples;
    wall;
    stats;
    bad = check_replies samples;
    setup_s = median !setups;
    warm_ok = !warm_ok;
    peak_rss;
  }

let service_layer_metrics o =
  let ok =
    List.filter_map
      (fun s ->
        match s.response with
        | Ok reply -> Some (s.latency, reply)
        | Error _ -> None)
      o.samples
  in
  let queue = List.map (fun (_, r) -> r.Core.Request.queue_seconds) ok in
  let exec = List.map (fun (_, r) -> r.Core.Request.evaluate_seconds) ok in
  let wire =
    List.map
      (fun (l, r) -> l -. r.Core.Request.queue_seconds -. r.Core.Request.evaluate_seconds)
      ok
  in
  let st = o.stats in
  [
    m "service.queue_s_p50" "s" (median queue);
    m "service.queue_s_p90" "s" (percentile 0.9 queue);
    m "service.exec_s_p50" "s" (median exec);
    m "service.wire_s_p50" "s" (median wire);
    m "service.cache_hit_ratio" "ratio"
      (fratio st.Core.Service.cache_hits (st.cache_hits + st.cache_misses));
    m "service.coalesced_share" "ratio" (fratio st.coalesced st.submitted);
    m "service.shed" "count" (float_of_int st.shed);
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* README.md says why each workload exists. *)
let workloads = [ "global-fig4"; "scaled-b9"; "serve-mixed" ]

type size = Full | Tiny

let analysis_target size = function
  | "global-fig4" -> Global
  | "scaled-b9" ->
    let bits = match size with Full -> 9 | Tiny -> 5 in
    Single (fun () -> Adc.Scaled.macro ~bits ())
  | w -> invalid_arg ("not an analysis workload: " ^ w)

let analysis_config size seed =
  let base = Core.Pipeline.Config.(default |> with_seed seed) in
  match size with
  | Full -> base
  | Tiny -> Core.Pipeline.Config.(base |> with_defects 300 |> with_good_space_dies 4)

(* Untraced end-to-end run of an analysis workload: repetitions of the
   whole Pipeline call until [seconds] have passed, at least three so that
   the median is not a mean. Every repetition uses the same seed, sets its
   macros up afresh (timed [setup_repeats] times and for [setup_slice]
   seconds) and must render the same tables. A repetition whose tables
   differ from the ones most repetitions agree on counts every one of its
   classes as failed. *)
let setup_repeats = 3
let setup_slice = 0.25

(* The digest most repetitions agree on (the earliest, on a tie). *)
let modal digests =
  let count d = List.length (List.filter (String.equal d) digests) in
  List.fold_left
    (fun best d -> if count d > count best then d else best)
    (List.hd digests) digests

type repetition = {
  digest : string;
  seconds : float;
  peak : float;
  classes : int;
  unresolved : int;
}

(* The digest most repetitions agree on, the number of repetitions that
   differ from it, and the failed share: unresolved classes of the agreeing
   repetitions plus every class of the others, over all classes. *)
let score reps =
  let reference = modal (List.map (fun r -> r.digest) reps) in
  let mismatched = List.length (List.filter (fun r -> r.digest <> reference) reps) in
  let classes = List.fold_left (fun acc r -> acc + r.classes) 0 reps in
  let failed_classes =
    List.fold_left
      (fun acc r -> acc + if r.digest = reference then r.unresolved else r.classes)
      0 reps
  in
  reference, mismatched, fratio failed_classes classes

let analysis_end_to_end size name ~seed ~seconds =
  let target = analysis_target size name in
  let config = analysis_config size seed in
  let setups = ref [] in
  let t0 = now () in
  let rec loop acc =
    let elapsed = now () -. t0 in
    if List.length acc >= 3 && elapsed >= seconds then List.rev acc
    else begin
      (* Untimed: collect the previous repetition's garbage, so that the
         set-up samples do not pay for it. *)
      Gc.full_major ();
      let macros, _ =
        sample ~repeats:setup_repeats ~slice:setup_slice setups (fun () -> setup target)
      in
      reset_peak_rss ();
      let (analyses, d), s =
        timed (fun () ->
            let a = pipeline_run target config macros in
            a, digest (render (tables_of target a)))
      in
      let health = Core.Pipeline.run_health analyses in
      loop
        ({
           digest = d;
           seconds = s;
           peak = peak_rss_mb ();
           classes = health.Core.Pipeline.total_classes;
           unresolved = health.Core.Pipeline.total_unresolved;
         }
        :: acc)
    end
  in
  let reps = loop [] in
  let reference, mismatched, failed_share = score reps in
  let digests = List.map (fun r -> r.digest) reps in
  let times = List.map (fun r -> r.seconds) reps in
  Printf.printf "workload %s seed %d jobs %d repetitions %d digest %s\n" name seed jobs
    (List.length reps) reference;
  Printf.printf "repetition seconds %s; set-up samples %d\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") times))
    (List.length !setups);
  if mismatched > 0 then
    Printf.printf "MISMATCH: repetition digests %s\n" (String.concat " " digests);
  Printf.printf "metric %-34s %.6g %s\n" "failed_share" failed_share "ratio";
  {
    correct = mismatched = 0;
    attempted = List.length reps;
    failed = mismatched;
    metrics =
      [
        m "run_s" "s" (median times);
        m "setup_s" "s" (median !setups);
        m "peak_rss_mb" "MB" (median (List.map (fun r -> r.peak) reps));
        m "resolved_share" "ratio" (1.0 -. failed_share);
        m "latency_p50_s" "s" (median times);
        m "latency_p90_s" "s" (percentile 0.9 times);
        m "requests_per_s" "1/s" (ratio (float_of_int (List.length reps)) (sum times));
      ];
  }

let serve_size = function Full -> serve_full | Tiny -> serve_tiny

let serve_end_to_end size ~seed ~seconds =
  let o = serve_run (serve_size size) ~seed ~seconds ~repeat_setup:true in
  let n = List.length o.samples in
  let latencies = List.map (fun s -> s.latency) o.samples in
  let rps = ratio (float_of_int n) o.wall in
  let failed_share = fratio o.bad n in
  let count k = List.length (List.filter (fun s -> s.kind = k) o.samples) in
  Printf.printf "workload serve-mixed seed %d jobs %d clients 2 requests %d (hot %d, cold %d, dup %d)\n"
    seed jobs n (count Hot) (count Cold) (count Dup);
  Printf.printf "metric %-34s %.6g %s\n" "failed_share" failed_share "ratio";
  {
    correct = o.bad = 0 && o.warm_ok;
    attempted = n;
    failed = o.bad;
    metrics =
      [
        m "run_s" "s" (ratio 100.0 rps);
        m "setup_s" "s" o.setup_s;
        m "peak_rss_mb" "MB" o.peak_rss;
        m "resolved_share" "ratio" (1.0 -. failed_share);
        m "latency_p50_s" "s" (median latencies);
        m "latency_p90_s" "s" (percentile 0.9 latencies);
        m "requests_per_s" "1/s" rps;
      ];
  }

(* The service layer as seen from an analysis workload's traced run: a
   short burst of the serve-mixed generator at its smallest size. *)
let service_probe ~seed =
  let o = serve_run serve_tiny ~seed ~seconds:0.0 ~repeat_setup:false in
  o.bad = 0 && o.warm_ok, service_layer_metrics o

let analysis_traced size name ~seed =
  let target = analysis_target size name in
  let config = analysis_config size seed in
  let macros, synth = setup target in
  let agreed, analyses, layers = traced_analysis target config macros synth in
  let codec_ok, codec = codec_cache_probe analyses in
  let probe_ok, service = service_probe ~seed in
  let ok = agreed && codec_ok && probe_ok in
  { correct = ok; attempted = 1; failed = (if ok then 0 else 1); metrics = layers @ service @ codec }

(* The serve workload's traced run: the request loop (its service-layer
   numbers come from the replies) plus one of its small global requests
   analysed traced, for the layers beneath the service. *)
let serve_traced size ~seed ~seconds =
  let sz = serve_size size in
  let o = serve_run sz ~seed ~seconds ~repeat_setup:false in
  (* Hot key 0 of the mix is a global request the loop sent. *)
  let request = (make_mix sz seed).hot.(0) in
  let target = Global in
  let config = config_of_request request in
  let macros, synth = setup target in
  let agreed, analyses, layers = traced_analysis target config macros synth in
  let codec_ok, codec = codec_cache_probe analyses in
  let ok = o.bad = 0 && o.warm_ok && agreed && codec_ok in
  {
    correct = ok;
    attempted = List.length o.samples + 1;
    failed = o.bad + (if agreed then 0 else 1);
    metrics = layers @ service_layer_metrics o @ codec;
  }

let run_workload size name ~seed ~seconds ~trace =
  Util.Pool.set_jobs jobs;
  match name, trace with
  | "serve-mixed", false -> serve_end_to_end size ~seed ~seconds
  | "serve-mixed", true -> serve_traced size ~seed ~seconds
  | _, false -> analysis_end_to_end size name ~seed ~seconds
  | _, true -> analysis_traced size name ~seed

(* ------------------------------------------------------------------ *)
(* Self-test at tiny sizes                                              *)
(* ------------------------------------------------------------------ *)

let end_to_end_names =
  [ "run_s"; "setup_s"; "peak_rss_mb"; "resolved_share"; "latency_p50_s";
    "latency_p90_s"; "requests_per_s" ]

let self_test () =
  Util.Pool.set_jobs jobs;
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let named r =
    List.for_all (fun x -> x.name <> "" && x.unit_ <> "" && Float.is_finite x.value) r.metrics
  in
  let names r = List.sort compare (List.map (fun x -> x.name) r.metrics) in
  (* Every workload prints every metric of its mode, each with a unit. *)
  let per_layer = ref None in
  List.iter
    (fun w ->
      let e2e = run_workload Tiny w ~seed:3 ~seconds:0.0 ~trace:false in
      check (w ^ ": end-to-end run is correct") e2e.correct;
      check (w ^ ": every end-to-end metric has a unit") (named e2e);
      check (w ^ ": end-to-end names")
        (names e2e = List.sort compare end_to_end_names);
      let traced = run_workload Tiny w ~seed:3 ~seconds:0.0 ~trace:true in
      check (w ^ ": traced run is correct") traced.correct;
      check (w ^ ": every per-layer metric has a unit") (named traced);
      (match !per_layer with
      | None -> per_layer := Some (names traced)
      | Some n -> check (w ^ ": same per-layer names as the others") (n = names traced)))
    workloads;
  (* A perturbed table must trip the digest check. *)
  let target = analysis_target Tiny "global-fig4" in
  let config = analysis_config Tiny 3 in
  let macros, _ = setup target in
  let tables = render (tables_of target (pipeline_run target config macros)) in
  let perturbed =
    List.mapi
      (fun i (t : Core.Request.table) ->
        if i = 0 then
          { t with Core.Request.body = String.map (fun c -> if c = '%' then '#' else c) t.body }
        else t)
      tables
  in
  check "a perturbed table changes the digest" (digest tables <> digest perturbed);
  let rep d = { digest = d; seconds = 1.0; peak = 1.0; classes = 100; unresolved = 1 } in
  let _, mismatched, failed_share =
    score [ rep (digest tables); rep (digest perturbed); rep (digest tables) ]
  in
  check "a perturbed repetition fails the run and all its classes"
    (mismatched = 1 && Float.abs (failed_share -. (102.0 /. 300.0)) < 1e-12);
  (* The seed argument changes the generated inputs, deterministically. *)
  let requests seed =
    let mix = make_mix serve_tiny seed in
    List.concat_map (fun _ -> List.map snd (next_round mix)) (List.init 20 Fun.id)
    |> List.map Core.Request.fingerprint
  in
  check "the same seed gives the same request stream" (requests 5 = requests 5);
  check "another seed gives another request stream" (requests 5 <> requests 6);
  let tables_for seed =
    digest (render (tables_of target (pipeline_run target (analysis_config Tiny seed) macros)))
  in
  check "the same seed gives the same analysis" (tables_for 4 = tables_for 4);
  check "another seed gives another analysis" (tables_for 4 <> tables_for 5);
  if !failures = 0 then print_endline "self-test passed"
  else begin
    Printf.printf "self-test: %d check(s) failed\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let finish f =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()))
    f

let run_cmd =
  let open Cmdliner in
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun w -> w, w) workloads))) None
      & info [ "workload" ] ~doc:"Workload to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let seconds =
    Arg.(value & opt float 30.0 & info [ "seconds" ] ~doc:"Measuring time.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~doc:"1: per-layer metrics from a traced run; 0: end-to-end.")
  in
  let run workload seed seconds trace =
    finish @@ fun () ->
    print_result (run_workload Full workload ~seed ~seconds ~trace:(trace = 1))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload and print its metrics.")
    Term.(const run $ workload $ seed $ seconds $ trace)

let self_test_cmd =
  let open Cmdliner in
  Cmd.v
    (Cmd.info "self-test" ~doc:"Check the benchmark itself at tiny sizes.")
    Term.(const (fun () -> finish self_test) $ const ())

let () =
  let open Cmdliner in
  exit (Cmd.eval (Cmd.group (Cmd.info "perfbench") [ run_cmd; self_test_cmd ]))
