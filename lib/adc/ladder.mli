(** The dual reference-ladder macro.

    The flash ADC generates its 256 reference levels with a dual resistor
    ladder. The analysed macro is a 32-tap slice of it — two parallel
    strings cross-tied every eight taps — replicated [instances] times to
    represent the full ladder in the global scaling (DESIGN.md §2).

    The ladder only connects to comparator gates, so its observable
    behaviour is the tap voltages (voltage domain: a tap error ≥ ½ LSB
    produces missing codes) and the DC current drawn between the two
    reference terminals ([iin:]). Shorts and opens almost always disturb
    that current — the paper found 99.8 % of ladder faults current
    detectable. *)

val taps : int

(** Resistance of one ladder segment, Ω. *)
val segment_resistance : float

val layout_netlist : unit -> Circuit.Netlist.t
val macro : unit -> Macro.Macro_cell.t
