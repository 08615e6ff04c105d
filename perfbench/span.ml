(* In-memory span log for the traced run.

   A span is one call into a layer, recorded from the benchmark's own
   code around the library call: a name, a start and an end on the
   monotonic clock, the span that was open when it began (its parent)
   and the op it served. Spans nest strictly (a stack), so a span's
   self time is its duration minus the durations of its direct
   children. With tracing off every entry point is one branch and
   records nothing. *)

let enabled = ref false
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* span names are interned once, at module initialisation of their
   users; the same name always maps to the same id *)
let names : string array ref = ref [||]

let name s =
  let rec find i = if i = Array.length !names then None else if !names.(i) = s then Some i else find (i + 1) in
  match find 0 with
  | Some id -> id
  | None ->
    names := Array.append !names [| s |];
    Array.length !names - 1

let cur_op = ref (-1)
let n = ref 0
let cap = ref 0
let s_name = ref [||]
let s_start = ref [||]
let s_stop = ref [||]
let s_parent = ref [||]
let s_op = ref [||]
let stack : int list ref = ref []

let grow () =
  let c = max 4096 (2 * !cap) in
  let ext a fill =
    let b = Array.make c fill in
    Array.blit !a 0 b 0 !n;
    a := b
  in
  ext s_name 0;
  ext s_start 0;
  ext s_stop 0;
  ext s_parent (-1);
  ext s_op (-1);
  cap := c

(* returns a handle for [leave]; -1 when tracing is off *)
let enter nm =
  if not !enabled then -1
  else begin
    if !n = !cap then grow ();
    let i = !n in
    incr n;
    !s_name.(i) <- nm;
    !s_parent.(i) <- (match !stack with p :: _ -> p | [] -> -1);
    !s_op.(i) <- !cur_op;
    stack := i :: !stack;
    !s_start.(i) <- now_ns ();
    i
  end

(* closes the span and returns its duration in ns (0 when off) *)
let leave i =
  if i < 0 then 0
  else begin
    let t = now_ns () in
    !s_stop.(i) <- t;
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    t - !s_start.(i)
  end

let rename i nm = if i >= 0 then !s_name.(i) <- nm

let wrap nm f =
  if not !enabled then f ()
  else begin
    let i = enter nm in
    match f () with
    | v ->
      ignore (leave i);
      v
    | exception e ->
      ignore (leave i);
      raise e
  end

type agg = { count : int; total_ns : int; self_ns : int }

let empty = { count = 0; total_ns = 0; self_ns = 0 }

(* per-name count, total and self time over every closed span *)
let aggregate () =
  let child = Array.make !n 0 in
  for i = 0 to !n - 1 do
    let p = !s_parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (!s_stop.(i) - !s_start.(i))
  done;
  let acc = Array.make (Array.length !names) empty in
  for i = 0 to !n - 1 do
    let d = !s_stop.(i) - !s_start.(i) in
    let a = acc.(!s_name.(i)) in
    acc.(!s_name.(i)) <-
      { count = a.count + 1; total_ns = a.total_ns + d; self_ns = a.self_ns + d - child.(i) }
  done;
  fun nm -> acc.(nm)

let per_span ns count = if count = 0 then 0.0 else float_of_int ns /. float_of_int count /. 1e3

(* mean duration and mean self time, in µs, of the spans named [nm] *)
let mean_us agg nm =
  let a = agg nm in
  per_span a.total_ns a.count

let mean_self_us agg nm =
  let a = agg nm in
  per_span a.self_ns a.count

(* total duration of the direct children named [child] under spans
   named [parent] *)
let child_time ~parent ~child =
  let t = ref 0 in
  for i = 0 to !n - 1 do
    let p = !s_parent.(i) in
    if !s_name.(i) = child && p >= 0 && !s_name.(p) = parent then
      t := !t + (!s_stop.(i) - !s_start.(i))
  done;
  !t

(* the raw log as tab-separated lines: name, start, end, parent, op *)
let dump oc =
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\top\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i !names.(!s_name.(i)) !s_start.(i) !s_stop.(i)
      !s_parent.(i) !s_op.(i)
  done
