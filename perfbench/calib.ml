(* calib: the reference kernel that batch.exe times beside every op.

     calib.exe     (one request per line on stdin: run the kernel once,
                    answer its wall time in nanoseconds on stdout)

   The host this benchmark runs on changes speed in phases of a second
   to minutes, and the phases slow allocation-heavy OCaml code most.
   The kernel is a fixed piece of such code (a string-keyed hash table
   and a sorted list of pairs) that uses nothing of the program under
   test, so its time moves with the host and never with the program.
   It runs in a process of its own so that it leaves the measured
   process's heap and GC alone. *)

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 6_000 do
    Hashtbl.replace h (i * 7919 land 0xffff) (string_of_int i)
  done;
  let l = List.init 10_000 (fun i -> (i, float_of_int i)) in
  List.length (List.sort (fun (a, _) (b, _) -> compare b a) l) + Hashtbl.length h

let () =
  ignore (Sys.opaque_identity (kernel ()));
  try
    while true do
      ignore (input_line stdin);
      let t0 = Monotonic_clock.now () in
      ignore (Sys.opaque_identity (kernel ()));
      let t1 = Monotonic_clock.now () in
      Printf.printf "%Ld\n%!" (Int64.sub t1 t0)
    done
  with End_of_file -> ()
