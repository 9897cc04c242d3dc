(* [col0]/[row0] is the entry's first (lowest) bucket, the reference
   point of the duplicate-free query rule in [visit]. *)
type 'a entry = { rect : Rect.t; payload : 'a; col0 : int; row0 : int }

type 'a t = {
  bounds : Rect.t;
  cell_size : int;
  cols : int;
  rows : int;
  buckets : 'a entry list array;
  mutable count : int;
}

let create ~bounds ~cell_size =
  if cell_size <= 0 then invalid_arg "Spatial_index.create: cell_size";
  let cols = max 1 ((Rect.width bounds + cell_size - 1) / cell_size) in
  let rows = max 1 ((Rect.height bounds + cell_size - 1) / cell_size) in
  {
    bounds;
    cell_size;
    cols;
    rows;
    buckets = Array.make (cols * rows) [];
    count = 0;
  }

let length t = t.count

let clamp v lo hi = max lo (min hi v)

let bucket_range t (r : Rect.t) =
  let col_of x = clamp ((x - t.bounds.Rect.x0) / t.cell_size) 0 (t.cols - 1) in
  let row_of y = clamp ((y - t.bounds.Rect.y0) / t.cell_size) 0 (t.rows - 1) in
  col_of r.Rect.x0, row_of r.Rect.y0, col_of r.Rect.x1, row_of r.Rect.y1

let insert t rect payload =
  t.count <- t.count + 1;
  let c0, r0, c1, r1 = bucket_range t rect in
  let entry = { rect; payload; col0 = c0; row0 = r0 } in
  for row = r0 to r1 do
    for col = c0 to c1 do
      let idx = (row * t.cols) + col in
      t.buckets.(idx) <- entry :: t.buckets.(idx)
    done
  done

(* An entry spanning several buckets sits in every one of them. It is
   reported only in the first bucket the query and the entry share, the
   top-left corner of the overlap of their bucket ranges. The row-major
   scan reaches that bucket before any other shared one, so entries come
   out exactly once and in first-encounter order. The rule keeps no
   scratch state, so concurrent queries on one index are safe. *)
let visit t region keep f =
  let c0, r0, c1, r1 = bucket_range t region in
  for row = r0 to r1 do
    for col = c0 to c1 do
      let bucket = t.buckets.((row * t.cols) + col) in
      List.iter
        (fun e ->
          if col = max c0 e.col0 && row = max r0 e.row0 && keep e.rect then
            f e.rect e.payload)
        bucket
    done
  done

let query_rect t rect f = visit t rect (Rect.touches_or_overlaps rect) f

let query_circle t circle f =
  visit t (Circle.bounds circle) (Circle.intersects_rect circle) f
