(* Command line of the benchmark. Runs one workload once and prints a
   human-readable report, then, as the last line of standard output, one
   JSON object: the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). The full result, with its metadata, is also written to
   <out>/<workload>.seed<seed>.trace<t>.json for the compare mode.

     dune exec perfbench/main.exe -- --workload serving-params --seed 1 --seconds 10 --trace 0 *)

open Perfbench

let usage () =
  Printf.eprintf
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
     workloads: %s\n"
    (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : Bench.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Bench.name (json_float m.Bench.value)
             m.Bench.unit_)
         ms)
  ^ "}"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "perfbench/results" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match Workload.find !workload with Some w -> w | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  let cfg =
    { Bench.workload = w; seed = !seed; seconds = !seconds; trace = !trace = 1;
      persons = Workload.persons }
  in
  let meta =
    [
      ("workload", Printf.sprintf "%S" w.Workload.name);
      ("seed", string_of_int !seed);
      ("seconds", json_float !seconds);
      ("trace", string_of_int !trace);
      ("persons", string_of_int Workload.persons);
      ("graph_seed", string_of_int Workload.graph_seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("workers", string_of_int (Workload.workers ()));
      ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
    ]
  in
  Printf.printf "perfbench %s: %s\n%s\n%!" w.Workload.name w.Workload.why
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) meta));
  let r = Bench.run cfg in
  let failed = List.length r.Bench.failures in
  List.iteri
    (fun i (_, req, why) -> if i < 20 then Printf.printf "FAILED %s: %s\n" req why)
    r.Bench.failures;
  let show title ms =
    Printf.printf "-- %s\n" title;
    List.iter
      (fun (m : Bench.metric) -> Printf.printf "  %-34s %16.6f %s\n" m.Bench.name m.Bench.value m.Bench.unit_)
      ms
  in
  Printf.printf "-- per query: requests, latency min / median / max (ms)\n";
  List.iter
    (fun (q, ls) ->
      Printf.printf "  %-22s %6d %12.3f %12.3f %12.3f\n" q (List.length ls)
        (1e3 *. List.fold_left Float.min infinity ls)
        (1e3 *. Measure.median ls)
        (1e3 *. List.fold_left Float.max 0.0 ls))
    r.Bench.per_query;
  show "end to end" (r.Bench.end_to_end @ r.Bench.extra);
  if cfg.Bench.trace then begin
    show "per layer (mean per call)" r.Bench.per_layer;
    show "per layer, zero where a workload does not call the layer" r.Bench.layers_unlisted;
    let frac =
      (List.find (fun (m : Bench.metric) -> m.Bench.name = "trace.layer_sum_frac") r.Bench.per_layer)
        .Bench.value
    in
    Printf.printf "layer sums vs untraced latency: %+.1f%% (tolerance %.0f%%): %s\n"
      (frac *. 100.0) (Bench.layer_sum_tolerance *. 100.0)
      (if Float.abs frac <= Bench.layer_sum_tolerance then "within" else "OUTSIDE")
  end;
  let metrics = if cfg.Bench.trace then r.Bench.per_layer else r.Bench.end_to_end in
  let summary =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (failed = 0) r.Bench.attempted failed (json_metrics metrics)
  in
  mkdir_p !out;
  let file = Filename.concat !out (Printf.sprintf "%s.seed%d.trace%d.json" w.Workload.name !seed !trace) in
  let oc = open_out file in
  Printf.fprintf oc "{%s,\n \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) meta))
    (failed = 0) r.Bench.attempted failed;
  Printf.fprintf oc " \"end_to_end\": %s,\n \"extra\": %s,\n \"per_layer\": %s,\n \"layers_unlisted\": %s}\n"
    (json_metrics r.Bench.end_to_end) (json_metrics r.Bench.extra) (json_metrics r.Bench.per_layer)
    (json_metrics r.Bench.layers_unlisted);
  close_out oc;
  Printf.printf "wrote %s\n%s\n%!" file summary
