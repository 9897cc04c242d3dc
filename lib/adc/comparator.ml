type options = { leaky_flipflop : bool; bias_adjacent : bool }

let default_options = { leaky_flipflop = true; bias_adjacent = true }
let dft_options = { leaky_flipflop = false; bias_adjacent = false }

let nmos ?(params = Circuit.Mos_model.default_nmos) w =
  { Circuit.Netlist.polarity = Circuit.Mos_model.Nmos; params; w; l = 1e-6 }

let pmos ?(params = Circuit.Mos_model.default_pmos) w =
  { Circuit.Netlist.polarity = Circuit.Mos_model.Pmos; params; w; l = 1e-6 }

(* Apply a process sample to device parameters. *)
let vary_nmos (s : Process.Variation.sample) w =
  let p = Circuit.Mos_model.default_nmos in
  nmos
    ~params:
      {
        p with
        Circuit.Mos_model.vth = p.Circuit.Mos_model.vth +. s.vth_n_shift;
        kp = p.Circuit.Mos_model.kp *. s.beta_factor;
      }
    w

let vary_pmos (s : Process.Variation.sample) w =
  let p = Circuit.Mos_model.default_pmos in
  pmos
    ~params:
      {
        p with
        Circuit.Mos_model.vth = p.Circuit.Mos_model.vth +. s.vth_p_shift;
        kp = p.Circuit.Mos_model.kp *. s.beta_factor;
      }
    w

(* The macro's devices, shared by the layout view and the test bench.
   Node names are the net labels the defect simulator reports faults
   against. *)
let add_macro_devices options (s : Process.Variation.sample) nl =
  let n name = Circuit.Netlist.node nl name in
  let gnd = Circuit.Netlist.ground in
  let vdd = n "vdd" in
  let vin = n "vin" and vref = n "vref" in
  let clk1 = n "clk1" and clk2 = n "clk2" and clk3 = n "clk3" in
  let biasn = n "biasn" and biaslt = n "biaslt" in
  let inp = n "inp" and inn = n "inn" in
  let tail = n "tail" and tailsrc = n "tailsrc" in
  let outp = n "outp" and outn = n "outn" in
  let ltail = n "ltail" and ltsrc = n "ltsrc" in
  let ffp = n "ffp" and ffn = n "ffn" in
  let nm = vary_nmos s and pm = vary_pmos s in
  let cf = s.capacitance_factor in
  let add_m name ~d ~g ~sN ~b spec =
    Circuit.Netlist.add_mosfet nl ~name ~drain:d ~gate:g ~source:sN ~bulk:b spec
  in
  (* Sampling switches and capacitors. *)
  add_m "MSWIN" ~d:inp ~g:clk1 ~sN:vin ~b:gnd (nm 4e-6);
  add_m "MSWREF" ~d:inn ~g:clk1 ~sN:vref ~b:gnd (nm 4e-6);
  Circuit.Netlist.add_capacitor nl ~name:"CINP" inp gnd (200e-15 *. cf);
  Circuit.Netlist.add_capacitor nl ~name:"CINN" inn gnd (200e-15 *. cf);
  (* Class-A amplifier: differential pair, diode PMOS loads, tail current
     source on the biasn line, enabled in the amplify and latch phases. *)
  add_m "MA1" ~d:outn ~g:inp ~sN:tail ~b:gnd (nm 20e-6);
  add_m "MA2" ~d:outp ~g:inn ~sN:tail ~b:gnd (nm 20e-6);
  add_m "MEN2" ~d:tail ~g:clk2 ~sN:tailsrc ~b:gnd (nm 20e-6);
  add_m "MEN3" ~d:tail ~g:clk3 ~sN:tailsrc ~b:gnd (nm 20e-6);
  add_m "MTAIL" ~d:tailsrc ~g:biasn ~sN:gnd ~b:gnd (nm 10e-6);
  add_m "MLP1" ~d:outn ~g:outn ~sN:vdd ~b:vdd (pm 8e-6);
  add_m "MLP2" ~d:outp ~g:outp ~sN:vdd ~b:vdd (pm 8e-6);
  (* Regenerative latch on the biaslt line. The cross pair is sized below
     the loads' transconductance: it acts as a negative conductance that
     boosts the latch-phase gain while keeping the static solution
     uniquely determined by the input (bistable statics would make the
     quasi-static fault simulation history-dependent). *)
  add_m "MX1" ~d:outn ~g:outp ~sN:ltail ~b:gnd (nm 3e-6);
  add_m "MX2" ~d:outp ~g:outn ~sN:ltail ~b:gnd (nm 3e-6);
  add_m "MLTEN" ~d:ltail ~g:clk3 ~sN:ltsrc ~b:gnd (nm 10e-6);
  add_m "MLTAIL" ~d:ltsrc ~g:biaslt ~sN:gnd ~b:gnd (nm 4e-6);
  (* Flipflop: a balanced dynamic latch — pass devices transfer the
     decision onto the storage nodes during the latching phase and the
     charge holds it afterwards. Its quiescent current is zero in the
     amplification and latching phases, exactly as the paper describes. *)
  add_m "MPASS1" ~d:ffp ~g:clk3 ~sN:outp ~b:gnd (nm 6e-6);
  add_m "MPASS2" ~d:ffn ~g:clk3 ~sN:outn ~b:gnd (nm 6e-6);
  if options.leaky_flipflop then begin
    (* The flipflop leak: a wide device biased just above threshold whose
       current varies strongly with process, and which only flows while
       clk1 is high — the paper's flipflop draws quiescent current in the
       sampling phase alone, and its spread is what masks IVdd-detectable
       faults there (§3.4). *)
    let biasff = n "biasff" in
    let leakmid = n "leakmid" in
    add_m "MLEAKEN" ~d:vdd ~g:clk1 ~sN:leakmid ~b:gnd (nm 600e-6);
    add_m "MLEAK" ~d:leakmid ~g:biasff ~sN:gnd ~b:gnd (nm 600e-6)
  end

let layout_netlist options =
  let nl = Circuit.Netlist.create () in
  add_macro_devices options
    (Process.Variation.nominal Process.Tech.cmos1um)
    nl;
  nl


let bench_netlist options (s : Process.Variation.sample) =
  let nl = Circuit.Netlist.create () in
  add_macro_devices options s nl;
  let n name = Circuit.Netlist.node nl name in
  let gnd = Circuit.Netlist.ground in
  (* Analog supply. *)
  Circuit.Netlist.add_vsource nl ~name:"VDDA" ~pos:(n "vdd") ~neg:gnd
    (Circuit.Waveform.dc s.vdd);
  (* Digital supply + clock buffers: the clock generator's face toward the
     comparator. Their quiescent current is the IDDQ observable. *)
  Circuit.Netlist.add_vsource nl ~name:"VDDD" ~pos:(n "vddd") ~neg:gnd
    (Circuit.Waveform.dc s.vdd);
  List.iter
    (fun i ->
      let raw = n (Printf.sprintf "rawclk%d" i) in
      let clk = n (Printf.sprintf "clk%d" i) in
      Circuit.Netlist.add_vsource nl
        ~name:(Printf.sprintf "VRAW%d" i)
        ~pos:raw ~neg:gnd (Clocks.raw_phase i);
      Circuit.Netlist.add_mosfet nl
        ~name:(Printf.sprintf "MCBP%d" i)
        ~drain:clk ~gate:raw ~source:(n "vddd") ~bulk:(n "vddd")
        (vary_pmos s 200e-6);
      Circuit.Netlist.add_mosfet nl
        ~name:(Printf.sprintf "MCBN%d" i)
        ~drain:clk ~gate:raw ~source:gnd ~bulk:gnd (vary_nmos s 100e-6))
    [ 1; 2; 3 ];
  (* Analog input and reference. *)
  Circuit.Netlist.add_vsource nl ~name:"VIN" ~pos:(n "vin") ~neg:gnd
    (Circuit.Waveform.dc 2.0);
  Circuit.Netlist.add_vsource nl ~name:"VREF" ~pos:(n "vref") ~neg:gnd
    (Circuit.Waveform.dc 2.0);
  (* Bias lines through the bias generator's output impedance. *)
  let bias name node level =
    let src = n (name ^ "_src") in
    Circuit.Netlist.add_vsource nl ~name:("V" ^ String.uppercase_ascii name)
      ~pos:src ~neg:gnd
      (Circuit.Waveform.dc level);
    Circuit.Netlist.add_resistor nl ~name:("R" ^ String.uppercase_ascii name)
      src node Params.bias_output_impedance
  in
  bias "biasn" (n "biasn") Params.bias_tail;
  bias "biaslt" (n "biaslt") Params.bias_latch;
  if options.leaky_flipflop then bias "biasff" (n "biasff") Params.bias_ff_leak;
  (* Parasitic load capacitances (wire + gate): not drawn in the layout,
     but essential for the latch to regenerate from the amplified state
     rather than resolving statically. *)
  let cf = s.capacitance_factor in
  Circuit.Netlist.add_capacitor nl ~name:"CPOUTP" (n "outp") gnd (100e-15 *. cf);
  Circuit.Netlist.add_capacitor nl ~name:"CPOUTN" (n "outn") gnd (100e-15 *. cf);
  Circuit.Netlist.add_capacitor nl ~name:"CPFFP" (n "ffp") gnd (30e-15 *. cf);
  Circuit.Netlist.add_capacitor nl ~name:"CPFFN" (n "ffn") gnd (30e-15 *. cf);
  nl

(* --- measurement ------------------------------------------------------- *)

let decision_measurements = [ "v:dec:p8"; "v:dec:m8"; "v:dec:p300"; "v:dec:m300" ]

let set_vin nl v =
  let vin = Circuit.Netlist.node nl "vin" in
  Circuit.Netlist.remove_device nl "VIN";
  Circuit.Netlist.add_vsource nl ~name:"VIN" ~pos:vin ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc v)

(* The times [measure] reads, snapped to the step grid by the engine: the
   mid-phase points of the second period and the decision instant. *)
let sample_times =
  [ Params.mid_sample; Params.mid_amplify; Params.mid_latch; Params.decision_time ]

let solution_at samples t = List.assoc t samples

(* Decision encoding. A real flipflop resolves a near-metastable input
   through its own input offset, always falling to the same side — that is
   why the balanced comparator is so prone to stuck-at signatures (§3.2).
   We model a +12 mV systematic flipflop offset: the decision is high only
   when the stored differential clears it; a narrow band around the
   tipping point is reported as ambiguous (0). *)
let flipflop_tip = 0.012

let decision sol nl =
  let v name = Circuit.Engine.voltage sol (Circuit.Netlist.node nl name) in
  let diff = v "ffp" -. v "ffn" in
  if diff > flipflop_tip +. 0.002 then 1.0
  else if diff < flipflop_tip -. 0.002 then -1.0
  else 0.0

let transient_run nl vin_value =
  let nl = Circuit.Netlist.copy nl in
  set_vin nl vin_value;
  let stop = 2.0 *. Params.period in
  let sols =
    Circuit.Engine.transient nl ~at:sample_times ~stop ~step:Params.sim_step
  in
  nl, List.combine sample_times sols

let measure nl =
  let vref = 2.0 in
  let nl_p8, sols_p8 = transient_run nl (vref +. 0.008) in
  let nl_m8, sols_m8 = transient_run nl (vref -. 0.008) in
  let nl_hi, sols_hi = transient_run nl (vref +. 0.3) in
  let nl_lo, sols_lo = transient_run nl (vref -. 0.3) in
  let dec sols nl = decision (solution_at sols Params.decision_time) nl in
  let currents tag sols =
    let at t name = Circuit.Engine.source_current (solution_at sols t) name in
    [
      Printf.sprintf "ivdd:sample:%s" tag, at Params.mid_sample "VDDA";
      Printf.sprintf "ivdd:amp:%s" tag, at Params.mid_amplify "VDDA";
      Printf.sprintf "ivdd:latch:%s" tag, at Params.mid_latch "VDDA";
      Printf.sprintf "iddq:sample:%s" tag, at Params.mid_sample "VDDD";
      Printf.sprintf "iddq:amp:%s" tag, at Params.mid_amplify "VDDD";
      Printf.sprintf "iddq:latch:%s" tag, at Params.mid_latch "VDDD";
      Printf.sprintf "iin:vin:%s" tag, at Params.mid_sample "VIN";
      Printf.sprintf "iin:vref:%s" tag, at Params.mid_sample "VREF";
      Printf.sprintf "iin:biasn:%s" tag, at Params.mid_amplify "VBIASN";
      Printf.sprintf "iin:biaslt:%s" tag, at Params.mid_latch "VBIASLT";
    ]
  in
  let clock_levels sols nl =
    let v t name = Circuit.Engine.voltage (solution_at sols t) (Circuit.Netlist.node nl name) in
    [
      "v:clk1:hi", v Params.mid_sample "clk1";
      "v:clk1:lo", v Params.mid_amplify "clk1";
      "v:clk2:hi", v Params.mid_amplify "clk2";
      "v:clk2:lo", v Params.mid_sample "clk2";
      "v:clk3:hi", v Params.mid_latch "clk3";
      "v:clk3:lo", v Params.mid_sample "clk3";
      "v:biasn", v Params.mid_amplify "biasn";
      "v:biaslt", v Params.mid_latch "biaslt";
    ]
  in
  [
    "v:dec:p8", dec sols_p8 nl_p8;
    "v:dec:m8", dec sols_m8 nl_m8;
    "v:dec:p300", dec sols_hi nl_hi;
    "v:dec:m300", dec sols_lo nl_lo;
  ]
  @ currents "hi" sols_hi @ currents "lo" sols_lo @ clock_levels sols_hi nl_hi

(* --- voltage classification -------------------------------------------- *)

let classify_voltage ~golden ~faulty =
  let g name = Macro.Macro_cell.get golden name in
  let f name = Macro.Macro_cell.get faulty name in
  let p300 = f "v:dec:p300" and m300 = f "v:dec:m300" in
  let p8 = f "v:dec:p8" and m8 = f "v:dec:m8" in
  let distribution_deviates =
    List.exists
      (fun name -> Float.abs (f name -. g name) > 0.1)
      [ "v:clk1:hi"; "v:clk1:lo"; "v:clk2:hi"; "v:clk2:lo"; "v:clk3:hi";
        "v:clk3:lo"; "v:biasn"; "v:biaslt" ]
  in
  if p300 = 1.0 && m300 = -1.0 then
    if p8 = 1.0 && m8 = -1.0 then
      if distribution_deviates then Macro.Signature.Clock_value
      else Macro.Signature.No_voltage_deviation
    else Macro.Signature.Offset_too_large
  else if p300 = m300 && p300 <> 0.0 then Macro.Signature.Output_stuck_at
  else Macro.Signature.Mixed

(* --- macro bundle ------------------------------------------------------- *)

let track_order options =
  if options.bias_adjacent then
    [ "clk1"; "clk2"; "clk3"; "biasn"; "biaslt"; "biasff"; "vin"; "vref";
      "vdd"; "0" ]
  else
    (* DfT reorder: the almost-equal bias lines are separated by strongly
       different signals. *)
    [ "biasn"; "clk1"; "vdd"; "biaslt"; "clk2"; "0"; "biasff"; "clk3";
      "vin"; "vref" ]

let layout options =
  let synth_options =
    { Layout.Synthesize.default_options with track_order = track_order options }
  in
  Layout.Synthesize.synthesize ~options:synth_options (layout_netlist options)
    ~name:(if options.bias_adjacent then "comparator" else "comparator_dft")

let macro options =
  {
    Macro.Macro_cell.name = "comparator";
    build = bench_netlist options;
    cell = lazy (layout options);
    measure;
    classify_voltage;
    instances = 256;
  }
