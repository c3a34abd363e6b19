type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable items : 'a entry array option;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { items = None; size = 0; next_seq = 0 }
let size h = h.size

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow h entry =
  match h.items with
  | None -> h.items <- Some (Array.make 16 entry)
  | Some a when h.size = Array.length a ->
      let bigger = Array.make (2 * Array.length a) entry in
      Array.blit a 0 bigger 0 h.size;
      h.items <- Some bigger
  | Some _ -> ()

let push h key value =
  let entry = { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h entry;
  let a = Option.get h.items in
  a.(h.size) <- entry;
  h.size <- h.size + 1;
  (* Sift up. *)
  let i = ref (h.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less a.(!i) a.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = a.(!i) in
    a.(!i) <- a.(parent);
    a.(parent) <- tmp;
    i := parent
  done

let pop h =
  if h.size = 0 then None
  else begin
    let a = Option.get h.items in
    let top = a.(0) in
    h.size <- h.size - 1;
    a.(0) <- a.(h.size);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less a.(l) a.(!smallest) then smallest := l;
      if r < h.size && less a.(r) a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!smallest);
        a.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (top.key, top.value)
  end

let peek_key h =
  if h.size = 0 then None else Some (Option.get h.items).(0).key
