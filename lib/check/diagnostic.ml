type severity = Error | Warning

type t = {
  severity : severity;
  path : string;
  message : string;
}

let error ~path message = { severity = Error; path; message }
let warning ~path message = { severity = Warning; path; message }

let errorf ~path fmt = Printf.ksprintf (error ~path) fmt

let is_error d = d.severity = Error

let errors l = List.filter is_error l

let is_clean l = not (List.exists is_error l)

let pp ppf d =
  Format.fprintf ppf "%s: %s: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.path d.message

let render = function
  | [] -> "(no diagnostics)"
  | ds -> String.concat "\n" (List.map (fun d -> Format.asprintf "%a" pp d) ds)
