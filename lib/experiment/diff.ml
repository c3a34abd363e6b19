(* The diff kernel (DESIGN.md, "Differential analysis").

   This is on the experiment hot path — an experiment run diffs every
   field of every report of every corpus file, and the L009 lint keeps
   the walk allocation-frugal: the path is carried as a cons-list of
   segments and only rendered to a string when a divergence is actually
   recorded, entries accumulate by consing, and the agree/count fast
   path allocates nothing. *)

module Json = Tdat_json.Json

type kind =
  | Value_mismatch
  | Type_mismatch
  | Missing_control
  | Missing_candidate

type entry = { path : string; kind : kind; control : string; candidate : string }

let kind_name = function
  | Value_mismatch -> "value"
  | Type_mismatch -> "type"
  | Missing_control -> "missing-in-control"
  | Missing_candidate -> "missing-in-candidate"

let kind_rank = function
  | Value_mismatch -> 0
  | Type_mismatch -> 1
  | Missing_control -> 2
  | Missing_candidate -> 3

let equal_kind a b = kind_rank a = kind_rank b

let compare_entry a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
    if c <> 0 then c
    else
      let c = String.compare a.control b.control in
      if c <> 0 then c else String.compare a.candidate b.candidate

let equal_entry a b = compare_entry a b = 0

(* --- the walk ----------------------------------------------------------- *)

(* Paths are built root-last ([Index 3] :: [Key "connections"] :: []),
   so rendering walks the list back to front. *)
type seg = Key of string | Index of int

type state = {
  tolerance : float;
  mutable fields : int;
  mutable entries : entry list;  (* reversed; [run] re-reverses *)
}

let render_path revsegs =
  let buf = Buffer.create 48 in
  Buffer.add_string buf "report";
  let rec go = function
    | [] -> ()
    | seg :: outer ->
        go outer;
        (match seg with
        | Key k ->
            Buffer.add_char buf '.';
            Buffer.add_string buf k
        | Index i ->
            Buffer.add_char buf '[';
            Buffer.add_string buf (string_of_int i);
            Buffer.add_char buf ']')
  in
  go revsegs;
  Buffer.contents buf

let absent = "(absent)"

let record st revsegs kind control candidate =
  st.entries <-
    { path = render_path revsegs; kind; control; candidate } :: st.entries

(* Numbers agree when bit-for-bit renderable as the same canonical
   decimal (Float.equal, which also makes NaN agree with NaN) or within
   the relative tolerance.  The [max 1.] floor keeps the tolerance
   absolute near zero — ratios and durations both live there. *)
let nums_agree tol a b =
  Float.equal a b
  || tol > 0.
     && Float.abs (a -. b)
        <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let leaf st = st.fields <- st.fields + 1

let rec value st revsegs (c : Json.t) (d : Json.t) =
  match (c, d) with
  | Json.Null, Json.Null -> leaf st
  | Json.Bool a, Json.Bool b ->
      leaf st;
      if a <> b then
        record st revsegs Value_mismatch (Json.to_string c) (Json.to_string d)
  | Json.Num a, Json.Num b ->
      leaf st;
      if not (nums_agree st.tolerance a b) then
        record st revsegs Value_mismatch (Json.to_string c) (Json.to_string d)
  | Json.Str a, Json.Str b ->
      leaf st;
      if not (String.equal a b) then
        record st revsegs Value_mismatch (Json.to_string c) (Json.to_string d)
  | Json.Arr xs, Json.Arr ys ->
      let rec go i xs ys =
        match (xs, ys) with
        | [], [] -> ()
        | x :: xr, y :: yr ->
            value st (Index i :: revsegs) x y;
            go (i + 1) xr yr
        | x :: xr, [] ->
            leaf st;
            record st (Index i :: revsegs) Missing_candidate (Json.to_string x)
              absent;
            go (i + 1) xr []
        | [], y :: yr ->
            leaf st;
            record st (Index i :: revsegs) Missing_control absent
              (Json.to_string y);
            go (i + 1) [] yr
      in
      go 0 xs ys
  | Json.Obj xs, Json.Obj ys ->
      (* Control members first (in control order), then candidate-only
         members (in candidate order): key-matched, order-insensitive. *)
      let rec ctrl = function
        | [] -> ()
        | (k, cv) :: rest ->
            (match List.assoc_opt k ys with
            | Some dv -> value st (Key k :: revsegs) cv dv
            | None ->
                leaf st;
                record st (Key k :: revsegs) Missing_candidate
                  (Json.to_string cv) absent);
            ctrl rest
      in
      ctrl xs;
      let rec cand = function
        | [] -> ()
        | (k, dv) :: rest ->
            if not (List.mem_assoc k xs) then begin
              leaf st;
              record st (Key k :: revsegs) Missing_control absent
                (Json.to_string dv)
            end;
            cand rest
      in
      cand ys
  | (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Arr _
    | Json.Obj _), _ ->
      leaf st;
      record st revsegs Type_mismatch (Json.to_string c) (Json.to_string d)

let run ?(tolerance = 0.) ~control ~candidate () =
  let st = { tolerance; fields = 0; entries = [] } in
  value st [] control candidate;
  (List.rev st.entries, st.fields)
