type t = {
  name : string;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable rows_selected : int;
  mutable kernel_ns : float;
  mutable time_s : float;
  mutable children : t list;
}

let make name children =
  { name; rows_in = 0; rows_out = 0; rows_selected = 0; kernel_ns = 0.0;
    time_s = 0.0; children }

type profile = { count_comm : bool }

let neo4j_profile = { count_comm = false }
let graphscope_profile = { count_comm = true }

type stats = {
  mutable operators : int;
  mutable intermediate_rows : int;
  mutable intermediate_cells : int;
  mutable comm_rows : int;
  mutable comm_cells : int;
  mutable edges_touched : int;
  mutable peak_rows : int;
  mutable live_rows : int;
  mutable exchange_rows : int;
  mutable exchange_cells : int;
  mutable workers_used : int;
  mutable op_trace : t option;
}

let fresh_stats () =
  {
    operators = 0;
    intermediate_rows = 0;
    intermediate_cells = 0;
    comm_rows = 0;
    comm_cells = 0;
    edges_touched = 0;
    peak_rows = 0;
    live_rows = 0;
    exchange_rows = 0;
    exchange_cells = 0;
    workers_used = 1;
    op_trace = None;
  }

exception Timeout

(* --- live-row accounting (peak_rows = max simultaneously-live rows) ------- *)

let live_add st n =
  st.live_rows <- st.live_rows + n;
  if st.live_rows > st.peak_rows then st.peak_rows <- st.live_rows

let live_sub st n = st.live_rows <- st.live_rows - n

(* --- produced rows ---------------------------------------------------------- *)

let count_rows profile st ~width n =
  st.intermediate_rows <- st.intermediate_rows + n;
  st.intermediate_cells <- st.intermediate_cells + (n * width);
  if profile.count_comm then begin
    st.comm_rows <- st.comm_rows + n;
    st.comm_cells <- st.comm_cells + (n * width)
  end

(* --- self-time clock ------------------------------------------------------ *)

(* Profiler-style attribution: exactly one trace node owns the clock at any
   moment; entering a nested operator frame charges the elapsed slice to the
   previous owner. Sampling happens once per chunk, not per row, so the
   overhead is negligible at the default chunk size. *)

type clock = { mutable mark : float; mutable owner : t option }

let clock () = { mark = 0.0; owner = None }

let charge clk now =
  match clk.owner with
  | Some tr -> tr.time_s <- tr.time_s +. (now -. clk.mark)
  | None -> ()

let timed clk tr f =
  let now = Sys.time () in
  charge clk now;
  let prev = clk.owner in
  clk.owner <- Some tr;
  clk.mark <- now;
  Fun.protect
    ~finally:(fun () ->
      let now = Sys.time () in
      charge clk now;
      clk.owner <- prev;
      clk.mark <- now)
    f

(* --- rendering ------------------------------------------------------------ *)

let fmt_time s =
  if s >= 1.0 then Printf.sprintf "%.2fs"
      s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let pp ppf tr =
  let rec go indent tr =
    let kernel =
      (* kernel-level counters appear only on operators that actually ran a
         vectorized kernel, keeping row-interpreted nodes unchanged *)
      if tr.rows_selected > 0 || tr.kernel_ns > 0.0 then
        Printf.sprintf ", kernel: selected=%d in %s" tr.rows_selected
          (fmt_time (tr.kernel_ns *. 1e-9))
      else ""
    in
    Format.fprintf ppf "%s%s  (rows in=%d out=%d%s, time=%s)@,"
      (String.make (2 * indent) ' ')
      tr.name tr.rows_in tr.rows_out kernel (fmt_time tr.time_s);
    List.iter (go (indent + 1)) tr.children
  in
  Format.fprintf ppf "@[<v>";
  go 0 tr;
  Format.fprintf ppf "@]"

let to_string tr = Format.asprintf "%a" pp tr

(* --- per-worker trace copies ----------------------------------------------- *)

let absorb dst src =
  dst.rows_in <- dst.rows_in + src.rows_in;
  dst.rows_out <- dst.rows_out + src.rows_out;
  dst.rows_selected <- dst.rows_selected + src.rows_selected;
  dst.kernel_ns <- dst.kernel_ns +. src.kernel_ns;
  dst.time_s <- dst.time_s +. src.time_s
