exception Singular

let matrix n = Array.make_matrix n n 0.0

(* --- LU kernels -------------------------------------------------------- *)

(* Relative singularity test. A pivot is only "zero" relative to the
   magnitude of the matrix it came from: MNA systems legitimately mix
   fA-capacitor stamps with mho-scale short conductances, and an absolute
   threshold (the historical 1e-300) spuriously rejects well-conditioned
   but badly-scaled systems. 1e-30 is far below any double-precision
   rank-revealing bound (eps ~ 2e-16), so only genuinely rank-deficient
   eliminations trip it; gmin-conditioned systems with condition numbers
   around 1e12-1e16 still pass. *)
let relative_pivot_floor = 1e-30

let matrix_scale a =
  let n = Array.length a in
  let scale = ref 0.0 in
  for i = 0 to n - 1 do
    let row = a.(i) in
    for j = 0 to n - 1 do
      let m = Float.abs (Array.unsafe_get row j) in
      if m > !scale then scale := m
    done
  done;
  !scale

(* Dense LU with partial pivoting, in place: on return [a] holds the
   multipliers below the diagonal and U on and above it, and [piv.(k)] is
   the row swapped into position k at step k. The arithmetic (operation
   order included) is exactly the historical fused eliminate-and-solve
   loop with the right-hand-side work split out, so factored solves are
   bit-identical to the pre-factorization implementation. *)
let factor_in_place a piv =
  let n = Array.length a in
  let threshold = relative_pivot_floor *. matrix_scale a in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs a.(i).(k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    (* [not (> threshold)] also rejects NaN pivots. *)
    if not (!pivot_mag > threshold) then raise Singular;
    piv.(k) <- !pivot_row;
    if !pivot_row <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!pivot_row);
      a.(!pivot_row) <- tmp
    end;
    let row_k = a.(k) in
    let akk = row_k.(k) in
    for i = k + 1 to n - 1 do
      let row_i = a.(i) in
      let factor = Array.unsafe_get row_i k /. akk in
      Array.unsafe_set row_i k factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set row_i j
            (Array.unsafe_get row_i j -. (factor *. Array.unsafe_get row_k j))
        done
    done
  done

(* Substitution against factors produced by [factor_in_place]. Pivot
   swaps exchanged full rows (stored multipliers included), so all swaps
   are applied to [b] first and the forward pass then runs over clean
   triangular factors — for each element this subtracts the same
   multiplier·value products in the same column order as the historical
   fused eliminate-and-solve loop, so results are bit-identical to it. *)
let substitute_in_place a piv b =
  let n = Array.length b in
  for k = 0 to n - 1 do
    if piv.(k) <> k then begin
      let t = b.(k) in
      b.(k) <- b.(piv.(k));
      b.(piv.(k)) <- t
    end
  done;
  for k = 0 to n - 1 do
    let bk = Array.unsafe_get b k in
    for i = k + 1 to n - 1 do
      let l = Array.unsafe_get (Array.unsafe_get a i) k in
      if l <> 0. then
        Array.unsafe_set b i (Array.unsafe_get b i -. (l *. bk))
    done
  done;
  for i = n - 1 downto 0 do
    let row = a.(i) in
    let sum = ref (Array.unsafe_get b i) in
    for j = i + 1 to n - 1 do
      sum := !sum -. (Array.unsafe_get row j *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!sum /. Array.unsafe_get row i)
  done

(* --- banded kernels ---------------------------------------------------- *)

(* The banded variants store the matrix densely but bound every loop by
   the band: partial pivoting within the lower band widens the effective
   upper bandwidth to at most bl + bu (the standard growth bound), which
   callers pass as [bu_eff]. Unlike the dense kernel, pivot swaps
   exchange only the *active* columns [k .. k+bu_eff]: swapping full rows
   would drag already-stored multipliers of earlier columns below the
   lower band where band-limited substitution never visits them. Each
   multiplier column thus stays attached to its elimination step, and
   substitution replays the swaps in step order (the LAPACK dgbtrf/dgbtrs
   scheme). *)
let band_limits a =
  let n = Array.length a in
  let bl = ref 0 and bu = ref 0 in
  for i = 0 to n - 1 do
    let row = a.(i) in
    for j = 0 to n - 1 do
      if row.(j) <> 0.0 then
        if i > j then bl := max !bl (i - j) else bu := max !bu (j - i)
    done
  done;
  !bl, !bu

let factor_banded_in_place a piv ~bl ~bu_eff =
  let n = Array.length a in
  let threshold = relative_pivot_floor *. matrix_scale a in
  for k = 0 to n - 1 do
    let ihi = min (n - 1) (k + bl) in
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to ihi do
      let mag = Float.abs a.(i).(k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if not (!pivot_mag > threshold) then raise Singular;
    piv.(k) <- !pivot_row;
    let jhi = min (n - 1) (k + bu_eff) in
    if !pivot_row <> k then begin
      let rk = a.(k) and rp = a.(!pivot_row) in
      for j = k to jhi do
        let t = rk.(j) in
        rk.(j) <- rp.(j);
        rp.(j) <- t
      done
    end;
    let row_k = a.(k) in
    let akk = row_k.(k) in
    for i = k + 1 to ihi do
      let row_i = a.(i) in
      let factor = Array.unsafe_get row_i k /. akk in
      Array.unsafe_set row_i k factor;
      if factor <> 0. then
        for j = k + 1 to jhi do
          Array.unsafe_set row_i j
            (Array.unsafe_get row_i j -. (factor *. Array.unsafe_get row_k j))
        done
    done
  done

let substitute_banded_in_place a piv ~bl ~bu_eff b =
  let n = Array.length b in
  for k = 0 to n - 1 do
    if piv.(k) <> k then begin
      let t = b.(k) in
      b.(k) <- b.(piv.(k));
      b.(piv.(k)) <- t
    end;
    let ihi = min (n - 1) (k + bl) in
    let bk = Array.unsafe_get b k in
    for i = k + 1 to ihi do
      let l = Array.unsafe_get (Array.unsafe_get a i) k in
      if l <> 0. then
        Array.unsafe_set b i (Array.unsafe_get b i -. (l *. bk))
    done
  done;
  for i = n - 1 downto 0 do
    let row = a.(i) in
    let sum = ref (Array.unsafe_get b i) in
    let jhi = min (n - 1) (i + bu_eff) in
    for j = i + 1 to jhi do
      sum := !sum -. (Array.unsafe_get row j *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!sum /. Array.unsafe_get row i)
  done

(* --- reverse Cuthill-McKee --------------------------------------------- *)

let rcm ~n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a <> b && a >= 0 && a < n && b >= 0 && b < n then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort_uniq compare l) adj;
  let degree i = List.length adj.(i) in
  (* Neighbours are visited lowest-degree first; ties break on the index,
     so the ordering is a pure function of the graph. *)
  let by_degree =
    Array.map
      (fun l -> List.sort (fun a b -> compare (degree a, a) (degree b, b)) l)
      adj
  in
  let visited = Array.make n false in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let queue = Queue.create () in
  let push v =
    if not visited.(v) then begin
      visited.(v) <- true;
      Queue.add v queue
    end
  in
  let rec component () =
    (* Start each component from its minimum-degree vertex. *)
    let start = ref (-1) in
    for i = n - 1 downto 0 do
      if not visited.(i) && (!start < 0 || (degree i, i) <= (degree !start, !start))
      then start := i
    done;
    if !start >= 0 then begin
      push !start;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        order.(!filled) <- v;
        incr filled;
        List.iter push by_degree.(v)
      done;
      component ()
    end
  in
  component ();
  (* Reverse the Cuthill-McKee order: position i holds the original index
     placed there. *)
  Array.init n (fun i -> order.(n - 1 - i))

let bandwidth_under ~perm edges =
  let n = Array.length perm in
  let inv = Array.make n 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  List.fold_left
    (fun acc (a, b) ->
      if a >= 0 && a < n && b >= 0 && b < n then
        max acc (abs (inv.(a) - inv.(b)))
      else acc)
    0 edges

(* --- persistent factorizations ----------------------------------------- *)

module Factor = struct
  type base =
    | Dense_lu of { lu : float array array; piv : int array }
    | Band_lu of {
        lu : float array array;
        piv : int array;
        perm : int array;
        bl : int;
        bu_eff : int;
      }

  (* One Sherman-Morrison term: solving through the update costs a dot
     product and an axpy on top of the base substitution. [w] is the
     base (plus earlier updates) solve of c*u; [denom] = 1 + v.w. *)
  type update = { w : float array; v : float array; denom : float }

  type t = { n : int; base : base; ups : update list }

  let size t = t.n
  let updates t = List.length t.ups
  let is_banded t = match t.base with Band_lu _ -> true | Dense_lu _ -> false

  let factor ?permute a =
    let n = Array.length a in
    if n > 0 && Array.length a.(0) <> n then
      invalid_arg "Linear.Factor.factor: square matrix expected";
    match permute with
    | None ->
      let lu = Array.map Array.copy a in
      let piv = Array.make n 0 in
      factor_in_place lu piv;
      { n; base = Dense_lu { lu; piv }; ups = [] }
    | Some perm ->
      if Array.length perm <> n then
        invalid_arg "Linear.Factor.factor: permutation size mismatch";
      (* Loops rather than nested [Array.init]: a float-returning closure
         boxes every element it gathers. *)
      let lu = Array.make n [||] in
      for i = 0 to n - 1 do
        let src = a.(perm.(i)) in
        let row = Array.make n 0.0 in
        for j = 0 to n - 1 do
          Array.unsafe_set row j (Array.unsafe_get src (Array.unsafe_get perm j))
        done;
        lu.(i) <- row
      done;
      let bl, bu = band_limits lu in
      let bu_eff = min (max 0 (n - 1)) (bl + bu) in
      let piv = Array.make n 0 in
      factor_banded_in_place lu piv ~bl ~bu_eff;
      { n; base = Band_lu { lu; piv; perm; bl; bu_eff }; ups = [] }

  let base_solve t b =
    match t.base with
    | Dense_lu { lu; piv } ->
      let y = Array.copy b in
      substitute_in_place lu piv y;
      y
    | Band_lu { lu; piv; perm; bl; bu_eff } ->
      let y = Array.make t.n 0.0 in
      for i = 0 to t.n - 1 do
        Array.unsafe_set y i (Array.unsafe_get b (Array.unsafe_get perm i))
      done;
      substitute_banded_in_place lu piv ~bl ~bu_eff y;
      let x = Array.make t.n 0.0 in
      for i = 0 to t.n - 1 do
        x.(perm.(i)) <- y.(i)
      done;
      x

  let dot u v =
    let s = ref 0.0 in
    let n = min (Array.length u) (Array.length v) in
    for i = 0 to n - 1 do
      s := !s +. (Array.unsafe_get u i *. Array.unsafe_get v i)
    done;
    !s

  let solve_factored t b =
    if Array.length b <> t.n then
      invalid_arg "Linear.Factor.solve_factored: shape mismatch";
    let y = base_solve t b in
    List.iter
      (fun { w; v; denom } ->
        let s = dot v y /. denom in
        if s <> 0.0 then
          for i = 0 to t.n - 1 do
            Array.unsafe_set y i
              (Array.unsafe_get y i -. (s *. Array.unsafe_get w i))
          done)
      t.ups;
    y

  (* Sherman-Morrison denominators near zero mean the update drives the
     matrix toward singularity; the guard is relative to the magnitude of
     the correction term so it is a pure function of the numbers. *)
  let denominator_guard = 1e-8

  let rank1_update t ~c ~u ~v =
    if Array.length u <> t.n || Array.length v <> t.n then
      invalid_arg "Linear.Factor.rank1_update: shape mismatch";
    if c = 0.0 then Some t
    else begin
      let cu = Array.make t.n 0.0 in
      for i = 0 to t.n - 1 do
        Array.unsafe_set cu i (c *. Array.unsafe_get u i)
      done;
      let w = solve_factored t cu in
      let s = dot v w in
      let denom = 1.0 +. s in
      if (not (Float.is_finite denom))
         || Float.abs denom <= denominator_guard *. (1.0 +. Float.abs s)
      then None
      else Some { t with ups = t.ups @ [ { w; v = Array.copy v; denom } ] }
    end
end

let residual a x b =
  let n = Array.length b in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      sum := !sum +. (a.(i).(j) *. x.(j))
    done;
    worst := Float.max !worst (Float.abs (!sum -. b.(i)))
  done;
  !worst
