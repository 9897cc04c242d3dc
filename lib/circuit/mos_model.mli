(** Level-1 (Shichman–Hodges) MOSFET model.

    Sufficient for the qualitative fault signatures the methodology
    classifies (stuck-at, offset, current deviation): square-law drain
    current with channel-length modulation, symmetric in drain/source.
    Parameters are per-polarity; variation (Vth shift, β factor) is
    applied when a netlist is instantiated. *)

type polarity = Nmos | Pmos

type params = {
  vth : float;      (** threshold voltage, V (positive for both polarities) *)
  kp : float;       (** process transconductance µCox, A/V² *)
  lambda : float;   (** channel-length modulation, 1/V *)
}

(** Default 1 µm process devices: NMOS Vth 0.8 V, KP 90 µA/V²;
    PMOS Vth 0.9 V, KP 30 µA/V²; λ = 0.03 V⁻¹. *)
val default_nmos : params

val default_pmos : params

(** Linearized operating point of a device for MNA stamping. All values
    use drain-to-source conventions of the *reported* terminal order (the
    model handles internal drain/source swap for negative Vds). *)
type operating_point = {
  id : float;   (** drain current, A, positive into the drain for NMOS *)
  gm : float;   (** ∂Id/∂Vgs *)
  gds : float;  (** ∂Id/∂Vds *)
}

(** [evaluate ~polarity ~params ~w ~l ~vgs ~vds] computes the DC current
    and small-signal derivatives. [w]/[l] in metres. For PMOS, pass the
    actual (negative-leaning) [vgs]/[vds]; the model mirrors internally
    and returns [id] with the convention that a conducting PMOS has
    negative drain current. *)
val evaluate :
  polarity:polarity -> params:params -> w:float -> l:float ->
  vgs:float -> vds:float -> operating_point

(** [evaluate_packed ~n ~sign ~vth ~beta ~lambda ~vgs ~vds ~id ~gm ~gds]
    evaluates devices [0 .. n-1] from packed parameter arrays in one
    allocation-free loop, writing results into [id]/[gm]/[gds]. This is
    the kernel behind the engine's compiled stamp plans: parameters are
    packed once at netlist-compile time, then every Newton iteration is a
    single tight pass.

    Packing convention: [sign] is [+1.0] for NMOS and [-1.0] for PMOS;
    [beta] is the precomputed [kp *. w /. l] (same expression, so the
    float is identical); [vth]/[lambda] come straight from {!params}.
    [vgs]/[vds] use the same reported-terminal convention as {!evaluate}.

    Results are bit-identical to calling {!evaluate} per device — the
    mirror and drain/source swap are exact IEEE-754 sign transfers — so
    the plan-based engine matches a scalar re-evaluation of the netlist
    exactly. All arrays must have length at least [n]. *)
val evaluate_packed :
  n:int ->
  sign:float array -> vth:float array -> beta:float array ->
  lambda:float array ->
  vgs:float array -> vds:float array ->
  id:float array -> gm:float array -> gds:float array -> unit

(** Region report for tests and debugging. *)
type region = Cutoff | Triode | Saturation

val region :
  polarity:polarity -> params:params -> vgs:float -> vds:float -> region
