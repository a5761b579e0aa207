(* The benchmark's own tests: its order statistics on fixed inputs, the
   determinism of its request generator, and a small-scale run of every
   workload that checks results against the oracle and the traced pass's
   layer sums against the untraced latencies. *)

open Perfbench

let close ?(eps = 1e-9) msg want got =
  if Float.abs (want -. got) > eps then Alcotest.failf "%s: want %.12g, got %.12g" msg want got

let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1))

(* --- order statistics ------------------------------------------------------ *)

let test_percentiles () =
  close "p0" 1.0 (Measure.percentile one_to_ten 0.0);
  close "p50" 5.5 (Measure.percentile one_to_ten 50.0);
  close "p90" 9.1 (Measure.percentile one_to_ten 90.0);
  close "p100" 10.0 (Measure.percentile one_to_ten 100.0);
  close "unsorted input" 5.5 (Measure.median (List.rev one_to_ten));
  close "single sample" 3.0 (Measure.percentile [ 3.0 ] 99.0)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check xs (q1, q3) =
    let g1, g3 = Measure.quartiles xs in
    close "q1" q1 g1;
    close "q3" q3 g3
  in
  check one_to_ten (2.75, 8.25);
  check [ 5.0; 1.0; 4.0; 2.0; 3.0 ] (1.5, 4.5);
  check [ 1.0; 3.0 ] (0.5, 3.5)

let test_summary () =
  close ~eps:1e-6 "cv" 0.427618 (Measure.cv [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  let s = Measure.summarize one_to_ten in
  Alcotest.(check int) "n" 10 s.Measure.n;
  Alcotest.(check bool) "no p99 below 1000 samples" true (s.Measure.p99 = None);
  let s = Measure.summarize (List.init 1000 float_of_int) in
  close "p99 at 1000 samples" 989.01 (Option.get s.Measure.p99)

let test_loop_rounds () =
  let run =
    Measure.loop ~seconds:0.0 ~round:7 ~prepare:ignore ~finish:(fun _ r -> r) (fun i -> i)
  in
  Alcotest.(check int) "stops on a round boundary" 7 (Array.length run.Measure.samples);
  let run =
    Measure.loop ~seconds:0.0 ~round:1 ~prepare:ignore ~finish:(fun _ r -> r)
      (fun _ -> failwith "boom")
  in
  Alcotest.(check bool) "an exception is the request's failure" true
    (match run.Measure.samples.(0).Measure.result with Error _ -> true | Ok _ -> false);
  let of_latencies ls =
    let sample l = { Measure.latency_s = l; cpu_s = l /. 2.0; result = Ok () } in
    { Measure.samples = Array.of_list (List.map sample ls) }
  in
  (* rounds of two: busy 5, 3, 7, 4, 6 -> the quietest quarter is round 1 and round 3 *)
  let quiet = Measure.quiet ~round:2 (of_latencies [ 2.; 3.; 1.; 2.; 3.; 4.; 2.; 2.; 3.; 3. ]) in
  Alcotest.(check (list (float 0.0))) "quietest quarter of the rounds, in issue order"
    [ 1.; 2.; 2.; 2. ] (Array.to_list (Array.map (fun x -> x.Measure.latency_s) quiet.Measure.samples));
  close "throughput" (4.0 /. 7.0) (Measure.throughput quiet);
  close "cpu per request" 0.875 (Measure.cpu_per_request quiet);
  Alcotest.(check int) "at least one round" 2
    (Array.length (Measure.quiet ~round:2 (of_latencies [ 1.; 1.; 2.; 2. ])).Measure.samples)

(* --- the request generator ------------------------------------------------- *)

let graph = lazy (Gopt_workloads.Ldbc.generate ~persons:60 ())
let domains = lazy (Workload.read_domains (Lazy.force graph))

let sequence (w : Workload.t) seed n =
  let next = w.Workload.stream (Lazy.force domains) seed in
  List.init n (fun _ ->
      let r = next () in
      (Workload.binding_key r, r.Workload.bump_before))

let test_determinism () =
  List.iter
    (fun (w : Workload.t) ->
      let a = sequence w 3 600 and b = sequence w 3 600 and c = sequence w 4 600 in
      Alcotest.(check bool) (w.Workload.name ^ ": same seed, same requests") true (a = b);
      Alcotest.(check bool) (w.Workload.name ^ ": another seed, another order") false (a = c))
    Workload.all

let test_serving_mix () =
  let quotas = Workload.zipf_quotas ~n:41 ~s:1.0 ~round:Workload.serving_round in
  Alcotest.(check int) "quotas fill a round" Workload.serving_round (Array.fold_left ( + ) 0 quotas);
  Array.iteri
    (fun i q ->
      if q < 1 then Alcotest.failf "template rank %d never drawn" i;
      if i > 0 && q > quotas.(i - 1) then Alcotest.failf "rank %d drawn more than rank %d" i (i - 1))
    quotas;
  let reqs = sequence Workload.serving_params 5 10_000 in
  let bumps = List.filteri (fun _ (_, b) -> b) reqs |> List.length in
  if bumps < 6 || bumps > 20 then Alcotest.failf "%d epoch bumps in 10000 requests" bumps

let test_template_coverage () =
  let names qs = List.sort compare (List.map (fun (q : Workload.query) -> q.Workload.name) qs) in
  Alcotest.(check int) "41 serving templates" 41 (List.length Templates.serving);
  Alcotest.(check (list string))
    "serving + pattern-heavy = the 50 workload queries"
    (names (List.map Workload.cypher Workload.all_cypher))
    (names (Workload.serving_params.Workload.queries @ Workload.heavy));
  Alcotest.(check int) "16 Gremlin texts" 16
    (List.length
       (List.filter
          (fun (q : Workload.query) -> q.Workload.lang = Workload.Gremlin)
          Workload.adhoc_compile.Workload.queries))

let test_serving_rank () =
  let names = List.map (fun (t : Templates.t) -> t.Templates.name) Templates.ranked in
  Alcotest.(check int) "every template ranked once" 41 (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string))
    "IC templates lead, most frequent in LDBC SF1 first"
    [ "IC11"; "IC1"; "IC10"; "IC4"; "IC2"; "IC12"; "IC8"; "IC5"; "IC3"; "IC7"; "IC6"; "IC9" ]
    (List.filteri (fun i _ -> i < 12) names);
  Alcotest.(check string) "then the others in workload order" "BI1" (List.nth names 12)

(* --- result checking --------------------------------------------------------- *)

(* Digests of a three-row result in the given row order; the bag digest is
   the same for every order, as Check.digest computes it from sorted rows. *)
let digest rows =
  {
    Check.fields = [ "name"; "cnt" ];
    rows = List.length rows;
    bag = "bag of the three rows";
    ordered = Some (Array.of_list (List.map Array.of_list rows));
  }

let test_order_check () =
  let sorted = digest [ [ "a"; "3" ]; [ "b"; "2" ]; [ "c"; "1" ] ]
  and permuted = digest [ [ "b"; "2" ]; [ "a"; "3" ]; [ "c"; "1" ] ] in
  let verdict ~tie_cut keys got =
    Check.compare_digest { Check.want = sorted; tie_cut; keys } got <> None
  in
  Alcotest.(check bool) "ordered result in oracle order passes" false
    (verdict ~tie_cut:false [ "cnt" ] sorted);
  Alcotest.(check bool) "ORDER BY without a cut: permuted rows fail" true
    (verdict ~tie_cut:false [ "cnt" ] permuted);
  Alcotest.(check bool) "ORDER BY with a cut: permuted rows fail" true
    (verdict ~tie_cut:true [ "cnt" ] permuted);
  Alcotest.(check bool) "unordered result: any row order passes" false
    (verdict ~tie_cut:false [] permuted);
  Alcotest.(check bool) "unordered result: another bag fails" true
    (verdict ~tie_cut:false [] { sorted with Check.bag = "another bag" })

(* --- small-scale runs ------------------------------------------------------- *)

let test_small_run (w : Workload.t) () =
  let r =
    Bench.run { Bench.workload = w; seed = 1; seconds = 0.3; trace = true; persons = 60 }
  in
  List.iter (fun (_, req, why) -> Alcotest.failf "%s: %s" req why) r.Bench.failures;
  let metric name =
    (List.find (fun (m : Bench.metric) -> m.Bench.name = name) r.Bench.per_layer).Bench.value
  in
  let frac = metric "trace.layer_sum_frac" in
  if Float.abs frac > Bench.layer_sum_tolerance then
    Alcotest.failf "layer sums differ from the untraced latency by %+.0f%%" (100.0 *. frac);
  List.iter
    (fun (m : Bench.metric) ->
      if not (Float.is_finite m.Bench.value && m.Bench.value > 0.0) then
        Alcotest.failf "end-to-end metric %s = %g" m.Bench.name m.Bench.value)
    r.Bench.end_to_end

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "summary, cv and p99 sample rule" `Quick test_summary;
          Alcotest.test_case "closed loop" `Quick test_loop_rounds;
        ] );
      ( "generator",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "serving mix and epoch bumps" `Quick test_serving_mix;
          Alcotest.test_case "template coverage" `Quick test_template_coverage;
          Alcotest.test_case "serving popularity rank" `Quick test_serving_rank;
        ] );
      ("check", [ Alcotest.test_case "ORDER BY columns in order" `Quick test_order_check ]);
      ( "runs",
        List.map
          (fun (w : Workload.t) ->
            Alcotest.test_case (w.Workload.name ^ ": oracle and layer sums") `Quick
              (test_small_run w))
          Workload.all );
    ]
