exception Decode_error of { context : string; message : string }

let fail ~context fmt =
  Format.kasprintf
    (fun message -> raise (Decode_error { context; message }))
    fmt

let () =
  Printexc.register_printer (function
    | Decode_error { context; message } ->
        Some (Printf.sprintf "Bgp_error.Decode_error(%s: %s)" context message)
    | _ -> None)
