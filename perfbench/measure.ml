(* The benchmark's one measurement primitive: a monotonic wall clock, a
   time-bounded closed loop over a request stream, and the order statistics
   every reported timing goes through. *)

(* Bechamel's clock reads CLOCK_MONOTONIC in nanoseconds. Sys.time is never
   used for latencies: it is process CPU time, which on a multi-domain run
   counts every worker. *)
let now () = Bechamel.Toolkit.Monotonic_clock.get () *. 1e-9

(* Process CPU seconds (user + system, all domains). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Percentile [p] in [0, 100] by linear interpolation between closest ranks
   (Hyndman-Fan type 7, numpy's default). *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. p /. 100.0 in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.0

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), which is also how run-to-run spread is
   judged, so the figures printed here and by the compare mode agree. *)
let quartiles_sorted a =
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)

let quartiles xs = quartiles_sorted (sorted xs)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Coefficient of variation: sample standard deviation over the mean. *)
let cv xs =
  let n = List.length xs in
  if n < 2 then nan
  else
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1)) /. m

type summary = {
  n : int;
  p50 : float;
  p90 : float;
  p99 : float option;
      (** Only when at least 1000 samples, so that ten or more lie beyond it. *)
  q1 : float;
  q3 : float;
  cv : float;
}

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  let q1, q3 = quartiles_sorted a in
  {
    n;
    p50 = percentile_sorted a 50.0;
    p90 = percentile_sorted a 90.0;
    p99 = (if n >= 1000 then Some (percentile_sorted a 99.0) else None);
    q1;
    q3;
    cv = cv xs;
  }

(* --- the closed loop ---------------------------------------------------- *)

type 'a sample = {
  latency_s : float;
  cpu_s : float;  (** Process CPU spent inside the request. *)
  result : ('a, string) result;  (** [Error] carries the failure's message. *)
}

type 'a run = { samples : 'a sample array  (** In issue order. *) }

(* One client, closed loop: [issue i] is request [i] of the stream, timed
   alone on the monotonic clock; a raised exception is the request's
   failure. Requests are issued until [seconds] have elapsed and the count is
   a multiple of [round] (workloads that cycle through a fixed query set
   stop on a round boundary, so every run holds the same mix). Untimed,
   [prepare i] runs before request [i] and [finish i r] reduces its result
   (or failure) to what the sample keeps, so no request's output outlives it; their cost
   is the client's think time and is excluded from every figure. *)
let loop ~seconds ~round ~prepare ~finish issue =
  let samples = ref [] in
  let start = now () in
  let i = ref 0 in
  while !i = 0 || !i mod round <> 0 || now () -. start < seconds do
    prepare !i;
    let c0 = cpu () in
    let t0 = now () in
    let r = match issue !i with r -> Ok r | exception e -> Error (Printexc.to_string e) in
    let latency_s = now () -. t0 in
    let cpu_s = cpu () -. c0 in
    let result = finish !i r in
    samples := { latency_s; cpu_s; result } :: !samples;
    incr i
  done;
  { samples = Array.of_list (List.rev !samples) }

(* The samples of the quietest quarter of a run's rounds (at least one
   round), in issue order. A round is [round] consecutive requests, and
   every round of a workload holds the same query mix, so rounds differ in
   busy time mostly by interference from the shared host. Interference
   only ever adds time: like the minimum of repeated timings, the fastest
   rounds measure the code rather than its neighbours. *)
let quiet ~round run =
  let n = Array.length run.samples / round in
  let busy k =
    let t = ref 0.0 in
    for i = k * round to ((k + 1) * round) - 1 do
      t := !t +. run.samples.(i).latency_s
    done;
    !t
  in
  let by_speed = List.stable_sort (fun a b -> Float.compare (busy a) (busy b)) (List.init n Fun.id) in
  let kept = List.sort compare (List.filteri (fun i _ -> i < max 1 ((n + 3) / 4)) by_speed) in
  { samples = Array.concat (List.map (fun k -> Array.sub run.samples (k * round) round) kept) }

(* Requests per busy second, and CPU seconds per request. *)
let throughput run =
  float_of_int (Array.length run.samples)
  /. Array.fold_left (fun acc x -> acc +. x.latency_s) 0.0 run.samples

let cpu_per_request run =
  Array.fold_left (fun acc x -> acc +. x.cpu_s) 0.0 run.samples
  /. float_of_int (Array.length run.samples)
