(** Metric lines and the final JSON result line. *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

(** JSON has no NaN or infinity: a value that could not be measured on a
    run (a layer that did no work) is written as 0 and marked n/a in the
    human-readable lines. *)
let finite v = if Float.is_finite v then v else 0.

let json_number v = Printf.sprintf "%.17g" (finite v)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let human m =
  let v =
    if Float.is_finite m.value then Printf.sprintf "%.6g" m.value else "n/a"
  in
  Printf.sprintf "  %-44s %14s %-8s %s" m.name v m.unit_ m.note
