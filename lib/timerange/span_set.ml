(* Canonical form: an array of disjoint, non-adjacent spans in increasing
   order.  The array representation makes point queries O(log n) and the
   linear merges below cache-friendly, which matters when a trace yields
   hundreds of thousands of events.

   Every kernel writes directly into a pre-sized result array — no list
   intermediates, no List.rev — because the set algebra runs once per
   series per connection and dominates the per-core cost of fleet
   analysis.  Result arrays are seeded with the static [Span.filler],
   never with a span the kernel just read or built: an array longer than
   256 words seeded with a young block forces a minor collection
   (DESIGN.md, "Allocation discipline").  An output span equal to an
   input span is the input span, not a copy. *)

type t = Span.t array

let empty = [||]
let is_empty s = Array.length s = 0

(* Coalesce an array sorted by start into the canonical form.  A
   counting pass sizes the result exactly; input that is already
   canonical comes back as it is. *)
let coalesce_sorted_arr src =
  let n = Array.length src in
  if n = 0 then empty
  else begin
    let runs = ref 1 in
    let cur_stop = ref (Span.stop src.(0)) in
    for i = 1 to n - 1 do
      let s = src.(i) in
      if Span.start s > !cur_stop then begin
        incr runs;
        cur_stop := Span.stop s
      end
      else if Span.stop s > !cur_stop then cur_stop := Span.stop s
    done;
    if !runs = n then src
    else begin
      let out = Array.make !runs Span.filler in
      let k = ref 0 in
      (* The run so far: its first span and its reach. *)
      let first = ref src.(0) in
      let cur_stop = ref (Span.stop src.(0)) in
      let emit () =
        out.(!k) <-
          (if !cur_stop = Span.stop !first then !first
           else Span.v (Span.start !first) !cur_stop);
        incr k
      in
      for i = 1 to n - 1 do
        let s = src.(i) in
        if Span.start s > !cur_stop then begin
          emit ();
          first := s;
          cur_stop := Span.stop s
        end
        else if Span.stop s > !cur_stop then cur_stop := Span.stop s
      done;
      emit ();
      out
    end
  end

(* One linear pass: whether [a] is already in [Span.compare] order. *)
let is_sorted a =
  let n = Array.length a in
  let i = ref 1 in
  while !i < n && Span.compare a.(!i - 1) a.(!i) <= 0 do
    incr i
  done;
  !i >= n

let of_span_array spans =
  if not (is_sorted spans) then Array.sort Span.compare spans;
  coalesce_sorted_arr spans

let of_spans spans =
  let a = Array.make (List.length spans) Span.filler in
  List.iteri (fun i sp -> a.(i) <- sp) spans;
  of_span_array a

let of_span s = [| s |]
let to_list s = Array.to_list s
let cardinal = Array.length
let size s = Array.fold_left (fun acc sp -> acc + Span.length sp) 0 s

let find_covering t s =
  (* Index of the span containing instant [t], or -1. *)
  let lo = ref 0 and hi = ref (Array.length s - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let sp = s.(mid) in
    if t < Span.start sp then hi := mid - 1
    else if t >= Span.stop sp then lo := mid + 1
    else begin
      found := mid;
      lo := !hi + 1
    end
  done;
  !found

let mem t s = find_covering t s >= 0

(* Two-pointer merge over the already-sorted inputs, coalescing on the
   fly into an array of the maximal possible size. *)
let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let n = Array.length a and m = Array.length b in
    let out = Array.make (n + m) Span.filler in
    let k = ref 0 in
    let i = ref 0 and j = ref 0 in
    let next () =
      if !j >= m || (!i < n && Span.compare a.(!i) b.(!j) <= 0) then begin
        let s = a.(!i) in
        incr i;
        s
      end
      else begin
        let s = b.(!j) in
        incr j;
        s
      end
    in
    (* The run so far: its first span and its reach. *)
    let first = ref (next ()) in
    let cur_stop = ref (Span.stop !first) in
    let emit () =
      out.(!k) <-
        (if !cur_stop = Span.stop !first then !first
         else Span.v (Span.start !first) !cur_stop);
      incr k
    in
    while !i < n || !j < m do
      let s = next () in
      let s_stop = Span.stop s in
      if Span.start s <= !cur_stop then begin
        if s_stop > !cur_stop then cur_stop := s_stop
      end
      else begin
        emit ();
        first := s;
        cur_stop := s_stop
      end
    done;
    emit ();
    if !k = n + m then out else Array.sub out 0 !k
  end

(* Intersections of canonical sets are canonical (pieces inherit the
   inputs' gaps), so the two-pointer sweep writes the final result
   directly.  Each step advances one pointer, so n + m slots suffice. *)
let inter a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then empty
  else begin
    let out = Array.make (n + m) Span.filler in
    let k = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      let sa = a.(!i) and sb = b.(!j) in
      let sa_start = Span.start sa and sa_stop = Span.stop sa in
      let sb_start = Span.start sb and sb_stop = Span.stop sb in
      let lo = max sa_start sb_start in
      let hi = min sa_stop sb_stop in
      if lo < hi then begin
        out.(!k) <-
          (if lo = sa_start && hi = sa_stop then sa
           else if lo = sb_start && hi = sb_stop then sb
           else Span.v lo hi);
        incr k
      end;
      if sa_stop <= sb_stop then incr i else incr j
    done;
    if !k = 0 then empty else Array.sub out 0 !k
  end

(* Gap sweep: at most cardinal + 1 gaps fit inside [within]. *)
let complement ~within s =
  let n = Array.length s in
  let w_start = Span.start within and w_stop = Span.stop within in
  let out = Array.make (n + 1) Span.filler in
  let k = ref 0 in
  let cursor = ref w_start in
  for i = 0 to n - 1 do
    let sp = s.(i) in
    let lo = max (Span.start sp) w_start in
    let hi = min (Span.stop sp) w_stop in
    if lo < hi then begin
      if lo > !cursor then begin
        out.(!k) <- Span.v !cursor lo;
        incr k
      end;
      if hi > !cursor then cursor := hi
    end
  done;
  if !cursor < w_stop then begin
    out.(!k) <- Span.v !cursor w_stop;
    incr k
  end;
  if !k = n + 1 then out else Array.sub out 0 !k

let diff a b =
  match a with
  | [||] -> empty
  | _ ->
      let whole = Span.hull a.(0) a.(Array.length a - 1) in
      inter a (complement ~within:whole b)

(* Canonical form puts the whole set inside [window] exactly when its
   first start and last stop are, and then the set is its own clip. *)
let clip window s =
  let n = Array.length s in
  let w_start = Span.start window and w_stop = Span.stop window in
  if n = 0 then empty
  else if Span.start s.(0) >= w_start && Span.stop s.(n - 1) <= w_stop then s
  else begin
    let out = Array.make n Span.filler in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let sp = s.(i) in
      let lo = max (Span.start sp) w_start in
      let hi = min (Span.stop sp) w_stop in
      if lo < hi then begin
        out.(!k) <-
          (if lo = Span.start sp && hi = Span.stop sp then sp else Span.v lo hi);
        incr k
      end
    done;
    if !k = n then out else Array.sub out 0 !k
  end

let hull s =
  if is_empty s then None else Some (Span.hull s.(0) s.(Array.length s - 1))

let filter f s =
  let n = Array.length s in
  if n = 0 then s
  else begin
    let out = Array.make n Span.filler in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if f s.(i) then begin
        out.(!k) <- s.(i);
        incr k
      end
    done;
    if !k = n then s else Array.sub out 0 !k
  end

let iter f s = Array.iter f s

module Private = struct
  let cardinal = cardinal
  let complement = complement
  let hull = hull
  let filter = filter
end
