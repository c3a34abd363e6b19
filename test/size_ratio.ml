(* Size-ratio guards: time a layer on an input of size n and on one of
   size 8n and require the ratio of the two times to stay under 20.  A
   linear layer gives about 8 and a quadratic one about 64, so the bound
   holds through the ~2x swings in speed of a shared host while still
   catching an O(n^2) kernel.  Each size is timed as the minimum of 3
   repeats, interleaving the two sizes so a slow phase of the host hits
   both, on a monotonic clock. *)

let factor = 8
let bound = 20.
let repeats = 3

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* A full major collection first, so the debt left by building the
   inputs is not charged to whichever run happens to trigger it. *)
let time_once run input =
  Gc.full_major ();
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (run input));
  now_ns () -. t0

(* [ratio ~n ~setup run]: [setup k] builds an input of size [k] outside
   the timed region; [run] is timed on the inputs of size [n] and
   [factor * n]. *)
let ratio ~n ~setup run =
  let small = setup n and large = setup (factor * n) in
  let ts = ref infinity and tl = ref infinity in
  for _ = 1 to repeats do
    ts := Float.min !ts (time_once run small);
    tl := Float.min !tl (time_once run large)
  done;
  !tl /. Float.max !ts 1.

let describe name ~n r =
  Printf.sprintf "%s: time(%dn) / time(n) = %.1f at n = %d (bound %.0f)" name
    factor r n bound

(* The guard: fails the test when the layer grows faster than linearly. *)
let check name ~n ~setup run =
  let r = ratio ~n ~setup run in
  Alcotest.(check bool) (describe name ~n r) true (r < bound)

(* The guard's negative control: passes only when the guard would fail,
   i.e. [run] is shown to grow superlinearly. *)
let check_rejects name ~n ~setup run =
  let r = ratio ~n ~setup run in
  Alcotest.(check bool) (describe name ~n r ^ " rejected") true (r >= bound)
