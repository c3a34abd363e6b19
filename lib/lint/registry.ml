type pass = Per_file | Whole_repo

type rule = {
  id : string;
  severity : Finding.severity;
  pass : pass;
  lib_only : bool;
  default_enabled : bool;
  summary : string;
  doc : string;
}

let rule ?(severity = Finding.Error) ?(pass = Per_file) ?(lib_only = false)
    ?(default_enabled = true) id ~summary doc =
  { id; severity; pass; lib_only; default_enabled; summary; doc }

let all =
  [
    rule "L000" ~summary:"file does not parse"
      "The linter could not parse the file; nothing else was checked.";
    rule "L001" ~summary:"polymorphic compare"
      "Bare or Stdlib-qualified polymorphic compare; use the value's own \
       ordering (Int.compare, Time_us.compare, Span.compare, ...).";
    rule "L002" ~summary:"polymorphic equality on a fenced abstract value"
      "= / <> where an operand mentions a fenced module (Time_us, Span, \
       Factors, ...); use the module's equal.";
    rule "L003" ~summary:"float-literal equality"
      "= / <> against a float literal; compare with a tolerance or use \
       Float.equal deliberately.";
    rule "L004" ~summary:"catch-all over the factor taxonomy"
      "A catch-all branch in a match over Factors.factor / Factors.group; \
       the 8-factor taxonomy must stay exhaustive.";
    rule "L005" ~lib_only:true ~summary:"bare failwith in library code"
      "Libraries raise typed exceptions (Bgp_error.Decode_error, ...) so \
       callers can match without string-matching Failure.";
    rule "L006" ~lib_only:true ~summary:"direct stderr printing in library code"
      "Diagnostics route through Tdat_obs.Log so --log-level filters them \
       uniformly.";
    rule "L007" ~pass:Whole_repo ~lib_only:true
      ~summary:"worker-reachable module-level mutable state"
      "A module-level ref / Hashtbl / Buffer / Queue / array / mutable \
       record in lib/ is reachable from Domain-pool worker closures and is \
       not Atomic, Domain.DLS or Mutex-guarded; sharing it across domains \
       breaks the byte-identical-across---jobs guarantee.";
    rule "L008" ~pass:Whole_repo
      ~summary:"cross-module mutation of module-level mutable state"
      "Module-level mutable state is mutated outside the module that owns \
       it; route the change through the owner's API so its locking \
       discipline cannot be bypassed.";
    rule "L009" ~severity:Finding.Warning
      ~summary:"allocation-heavy idiom in a hot path"
      "A known minor-heap-heavy idiom (list append, List.map/concat, \
       String.concat, Printf.sprintf, Fun.flip) inside a configured hot \
       path (pcap/MRT decode, Span_set kernels, \
       Trace.connection_subtraces); use preallocated arrays, Buffer or \
       fold loops.";
    rule "L010" ~severity:Finding.Warning ~summary:"unused lint suppression"
      "A [@tdat.lint.allow ...] attribute suppressed nothing; delete it so \
       stale allowlists cannot hide future regressions.";
    rule "L011" ~summary:"non-literal or malformed metric/span name"
      "A metric or span name (Counter/Gauge/Histogram.make, Span.with_ / \
       Span.timed, Tracer.begin_span/end_span/complete_span) must be a \
       literal lowercase snake-case string — [a-z0-9] words joined by \
       '.', '_' or '-' — so names are greppable, collision-free and \
       stable in the Prometheus exposition; no dynamic concatenation.";
    rule "L012" ~pass:Whole_repo ~lib_only:true
      ~summary:"library export no other file uses"
      "A val in a lib/ .mli (outside any Private submodule) that no scanned \
       file other than the module's own .ml names, through aliases, opens, \
       functor arguments or first-class packing.  Delete it, drop it from \
       the interface, move a test tool to test/, or put what a test must \
       watch under Private.  Exact only when the scan covers every \
       production root (lib bin bench examples).";
  ]

let id_range =
  match (all, List.rev all) with
  | first :: _, last :: _ -> first.id ^ ".." ^ last.id
  | _ -> ""

let find id = List.find_opt (fun r -> String.equal r.id id) all

let severity_of id =
  match find id with Some r -> r.severity | None -> Finding.Error

(* --- rule selection ------------------------------------------------------ *)

module Selection = Set.Make (String)

type selection = Selection.t

let default_selection =
  List.fold_left
    (fun acc r -> if r.default_enabled then Selection.add r.id acc else acc)
    Selection.empty all

let enabled sel id = Selection.mem id sel

(* [+L00x] enables, [-L00y] disables, starting from the default set;
   clauses are comma- or whitespace-separated and apply left to right. *)
let apply_spec spec =
  let clauses =
    String.split_on_char ',' spec
    |> List.concat_map (String.split_on_char ' ')
    |> List.map String.trim
    |> List.filter (fun s -> not (String.equal s ""))
  in
  let apply acc clause =
    Result.bind acc (fun sel ->
        let op, id =
          if String.length clause >= 1 && clause.[0] = '+' then
            (`Add, String.sub clause 1 (String.length clause - 1))
          else if String.length clause >= 1 && clause.[0] = '-' then
            (`Remove, String.sub clause 1 (String.length clause - 1))
          else (`Add, clause)
        in
        match find id with
        | None ->
            Result.Error
              (Printf.sprintf
                 "unknown rule %S in --rules (expected %s clauses like \
                  +L007,-L003)"
                 clause id_range)
        | Some _ -> (
            match op with
            | `Add -> Ok (Selection.add id sel)
            | `Remove -> Ok (Selection.remove id sel)))
  in
  List.fold_left apply (Ok default_selection) clauses
