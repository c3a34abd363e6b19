type 'a t = (Span.t * 'a) array

let empty = [||]

let compare_event (sa, _) (sb, _) = Span.compare sa sb

(* Sorted by construction: events almost always arrive in time order, so
   one linear pass checks the order and only input out of order pays for
   the sort.  A stable sort of an array already in order is the
   identity, so the result is the same either way. *)
let is_sorted a =
  let n = Array.length a in
  let i = ref 1 in
  while !i < n && compare_event a.(!i - 1) a.(!i) <= 0 do
    incr i
  done;
  !i >= n

let sort_if_needed a =
  if not (is_sorted a) then Array.stable_sort compare_event a;
  a

(* Growable-array builder: an event costs its tuple plus amortized one
   slot, instead of a list cell per event plus a full copy in [build].
   It grows by appending the array to itself, which needs no seed value:
   [Array.make] seeded with the fresh event would force a minor
   collection once the array passes 256 words (DESIGN.md, "Allocation
   discipline"). *)
type 'a builder = { mutable arr : (Span.t * 'a) array; mutable len : int }

let builder () = { arr = [||]; len = 0 }

let push b e =
  let cap = Array.length b.arr in
  if b.len = cap then
    b.arr <- (if cap = 0 then Array.make 16 e else Array.append b.arr b.arr);
  b.arr.(b.len) <- e;
  b.len <- b.len + 1

let add b sp x = push b (sp, x)
let build b = sort_if_needed (Array.sub b.arr 0 b.len)

let of_list events =
  let b = builder () in
  List.iter (push b) events;
  build b

let to_list = Array.to_list
let cardinal = Array.length

let to_span_set s =
  let spans = Array.make (Array.length s) Span.filler in
  Array.iteri (fun i (sp, _) -> spans.(i) <- sp) s;
  Span_set.of_span_array spans

let size s = Span_set.size (to_span_set s)
let fold f s acc = Array.fold_left (fun acc (sp, x) -> f sp x acc) acc s
let iter f s = Array.iter (fun (sp, x) -> f sp x) s

(* Count-then-fill (DESIGN.md, "Allocation discipline"): one counting
   pass, one exactly sized result array, no list intermediates.
   [Array.sub] sizes it without a seed value.  Events are never mutated
   after construction, so the no-op cases share the input array. *)
let filter f s =
  let n = Array.length s in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let sp, x = s.(i) in
    if f sp x then incr count
  done;
  if !count = 0 then empty
  else if !count = n then s
  else begin
    let out = Array.sub s 0 !count in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let sp, x = s.(i) in
      if f sp x then begin
        out.(!k) <- s.(i);
        incr k
      end
    done;
    out
  end

(* A linear two-way merge that takes [a]'s event first on ties: the
   order a stable sort of [append a b] gives.  Clipping can leave a
   series out of order (events trimmed to the window's start tie on
   start), and such input keeps the sort. *)
let merge a b =
  let n = Array.length a and m = Array.length b in
  let out = Array.append a b in
  if not (is_sorted a && is_sorted b) then Array.stable_sort compare_event out
  else if n > 0 && m > 0 then begin
    let i = ref 0 and j = ref 0 in
    for k = 0 to n + m - 1 do
      if !j >= m || (!i < n && compare_event a.(!i) b.(!j) <= 0) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done
  end;
  out

let clip window s =
  let n = Array.length s in
  let count = ref 0 and inside = ref 0 in
  for i = 0 to n - 1 do
    (* [overlaps] agrees with [inter] being [Some] and allocates
       nothing, so the counting pass is free. *)
    let sp = fst s.(i) in
    if Span.overlaps window sp then begin
      incr count;
      if Span.start sp >= Span.start window && Span.stop sp <= Span.stop window
      then incr inside
    end
  done;
  if !count = 0 then empty
  else if !inside = n then s
  else begin
    let out = Array.sub s 0 !count in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let sp, x = s.(i) in
      match Span.inter window sp with
      | Some sp' ->
          out.(!k) <- (if Span.equal sp' sp then s.(i) else (sp', x));
          incr k
      | None -> ()
    done;
    out
  end

module Private = struct
  let to_list = to_list
end
