let sized (s : Process.Variation.sample) polarity w =
  let base, shift =
    match (polarity : Circuit.Mos_model.polarity) with
    | Circuit.Mos_model.Nmos -> Circuit.Mos_model.default_nmos, s.Process.Variation.vth_n_shift
    | Circuit.Mos_model.Pmos -> Circuit.Mos_model.default_pmos, s.Process.Variation.vth_p_shift
  in
  {
    Circuit.Netlist.polarity;
    params =
      {
        base with
        Circuit.Mos_model.vth = base.Circuit.Mos_model.vth +. shift;
        kp = base.Circuit.Mos_model.kp *. s.Process.Variation.beta_factor;
      };
    w;
    l = 1e-6;
  }

(* Two-stage buffer per phase: shaping inverter into a large driver. *)
let add_macro_devices (s : Process.Variation.sample) nl =
  let n name = Circuit.Netlist.node nl name in
  let gnd = Circuit.Netlist.ground in
  let vddd = n "vddd" in
  let inverter tag ~input ~output ~wp ~wn =
    Circuit.Netlist.add_mosfet nl ~name:("MP" ^ tag) ~drain:output ~gate:input
      ~source:vddd ~bulk:vddd (sized s Circuit.Mos_model.Pmos wp);
    Circuit.Netlist.add_mosfet nl ~name:("MN" ^ tag) ~drain:output ~gate:input
      ~source:gnd ~bulk:gnd (sized s Circuit.Mos_model.Nmos wn)
  in
  List.iter
    (fun i ->
      let raw = n (Printf.sprintf "rawclk%d" i) in
      let mid = n (Printf.sprintf "mid%d" i) in
      let clk = n (Printf.sprintf "clk%d" i) in
      inverter (Printf.sprintf "S%d" i) ~input:raw ~output:mid ~wp:6e-6 ~wn:3e-6;
      inverter (Printf.sprintf "D%d" i) ~input:mid ~output:clk ~wp:200e-6 ~wn:100e-6)
    [ 1; 2; 3 ]

let layout_netlist () =
  let nl = Circuit.Netlist.create () in
  add_macro_devices (Process.Variation.nominal Process.Tech.cmos1um) nl;
  nl

let bench_netlist (s : Process.Variation.sample) =
  let nl = Circuit.Netlist.create () in
  add_macro_devices s nl;
  let n name = Circuit.Netlist.node nl name in
  let gnd = Circuit.Netlist.ground in
  Circuit.Netlist.add_vsource nl ~name:"VDDD" ~pos:(n "vddd") ~neg:gnd
    (Circuit.Waveform.dc s.Process.Variation.vdd);
  List.iter
    (fun i ->
      Circuit.Netlist.add_vsource nl
        ~name:(Printf.sprintf "VRAW%d" i)
        ~pos:(n (Printf.sprintf "rawclk%d" i))
        ~neg:gnd (Clocks.direct_phase i);
      (* The comparator array loads each clock line with its switch
         gates: ~5 pF of distributed capacitance. The double stage must
         still slew it within a fraction of the phase. *)
      Circuit.Netlist.add_capacitor nl
        ~name:(Printf.sprintf "CLOAD%d" i)
        (n (Printf.sprintf "clk%d" i))
        gnd 5e-12)
    [ 1; 2; 3 ];
  nl

(* The two-stage buffers are non-inverting: clk_i follows the active-high
   phase input. One full period is simulated; levels and IDDQ are read
   mid-phase. *)
let measure nl =
  let mid i = (float_of_int (i - 1) +. 0.5) *. Params.phase in
  let times = List.map mid [ 1; 2; 3 ] in
  let sols =
    List.combine times
      (Circuit.Engine.transient nl ~at:times ~stop:Params.period
         ~step:Params.sim_step)
  in
  let at t = List.assoc t sols in
  let v t name = Circuit.Engine.voltage (at t) (Circuit.Netlist.node nl name) in
  List.concat
    [
      List.concat_map
        (fun i ->
          let clk = Printf.sprintf "clk%d" i in
          let own = mid i in
          let other = mid (1 + (i mod 3)) in
          [
            Printf.sprintf "v:%s:hi" clk, v own clk;
            Printf.sprintf "v:%s:lo" clk, v other clk;
          ])
        [ 1; 2; 3 ];
      List.map
        (fun i ->
          ( Printf.sprintf "iddq:phase%d" i,
            Circuit.Engine.source_current (at (mid i)) "VDDD" ))
        [ 1; 2; 3 ];
    ]

(* A clock that no longer toggles freezes the comparator array: stuck.
   A shifted level is the "Clock value" signature. *)
let classify_voltage ~golden ~faulty =
  ignore golden;
  let f name = Macro.Macro_cell.get faulty name in
  let stuck =
    List.exists
      (fun i ->
        let hi = f (Printf.sprintf "v:clk%d:hi" i) in
        let lo = f (Printf.sprintf "v:clk%d:lo" i) in
        Float.abs (hi -. lo) < 2.5)
      [ 1; 2; 3 ]
  in
  if stuck then Macro.Signature.Output_stuck_at
  else begin
    let shifted =
      List.exists
        (fun i ->
          f (Printf.sprintf "v:clk%d:hi" i) < 4.5
          || f (Printf.sprintf "v:clk%d:lo" i) > 0.5)
        [ 1; 2; 3 ]
    in
    if shifted then Macro.Signature.Clock_value
    else Macro.Signature.No_voltage_deviation
  end

let macro () =
  {
    Macro.Macro_cell.name = "clock generator";
    build = bench_netlist;
    cell =
      lazy (Layout.Synthesize.synthesize (layout_netlist ()) ~name:"clock_gen");
    measure;
    classify_voltage;
    instances = 1;
  }
