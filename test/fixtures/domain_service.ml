(* L007 fixture: module-level mutable state reachable from a service
   worker.  [served] is a plain ref, [handle] mutates it, and [serve]
   hands a closure over [handle] to [Service.submit] — linted with
   --treat-as-lib this must fail with exactly one L007 at the [served]
   binding. *)

let served = ref 0

let handle n = served := !served + n

let serve service n = Service.submit service (fun () -> handle n)
