(* Shared pieces of the workloads: run configuration, latency samples,
   process figures and the result every workload returns. *)

type config = { workload : string; seed : int; seconds : float; traced : bool }

(* {1 Samples} *)

module Samples = struct
  (* off the OCaml heap, so the sample store neither counts toward the
     GC's pacing nor grows the heap the workload's garbage lands in *)
  type t = { mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable n : int }

  let alloc capacity =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout capacity in
    Bigarray.Array1.fill a 0.0;
    a

  let create ?(capacity = 1024) () = { a = alloc capacity; n = 0 }

  (* room for every op of a run up front, so the store does not grow in
     steps inside the timed window and [peak_rss_mb] does not depend on
     how many ops a run completed *)
  let for_ops () = create ~capacity:(1 lsl 20) ()

  let add s v =
    if s.n = Bigarray.Array1.dim s.a then begin
      let b = alloc (2 * s.n) in
      Bigarray.Array1.blit s.a (Bigarray.Array1.sub b 0 s.n);
      s.a <- b
    end;
    Bigarray.Array1.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  let count s = s.n
  let get s i = Bigarray.Array1.get s.a i

  (* nearest-rank percentile of a sorted array *)
  let rank (b : float array) p =
    let n = Array.length b in
    b.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

  (* nearest-rank percentile; nan when empty *)
  let percentile s p =
    if s.n = 0 then nan
    else begin
      let b = Array.init s.n (get s) in
      Array.sort compare b;
      rank b p
    end

  let mean s =
    if s.n = 0 then nan
    else begin
      let t = ref 0.0 in
      for i = 0 to s.n - 1 do
        t := !t +. get s i
      done;
      !t /. float_of_int s.n
    end
end

(* {1 Host speed}

   On a shared host the speed a run gets from its CPU changes by up to
   1.8x, for stretches from a tenth of a second to minutes (measured on
   a 2-vCPU KVM guest of a Xeon host: a plain arithmetic loop ran
   100k iterations in 13, 19 or 23 ms depending on the minute). Steal
   time stays at zero and process CPU time tracks wall time, so the
   program cannot see the slowdown except by timing known work. Between
   ops, every [every_ns], the timed window runs [kernel], a fixed piece
   of the benchmark's own code that calls no library of the repository
   and allocates nothing, and records how long it took. The end-to-end
   figures are then given at the reference speed, at which one probe
   takes [nominal_us]: each op's time is scaled by [nominal_us] over the
   median probe time of the quarter second it ended in. A change to the
   program leaves the probes as they were, so it moves the figures as
   it moves wall time. The probes' own time is left out of the
   window's clock. *)

module Speed = struct
  let nominal_us = 250.0
  let every_ns = 50_000_000
  let window_s = 0.25
  (* table lookups and updates, float arithmetic and a stream of
     writes through a 2 MiB buffer, as bump allocation streams through
     the minor heap: the mix the workloads spend their time on. A probe
     that only did arithmetic slowed down less than the workloads when
     the host got busy. It allocates nothing, so the GC, the gc.* rows
     and peak_rss_mb see no probe. *)
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 1024
  let () =
    for k = 0 to 1023 do
      Hashtbl.replace tbl k k
    done

  let flts = Array.make 64 1.0

  (* off the OCaml heap, so the GC never scans it; made at the first
     probe, after set-up *)
  let stream = ref (Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0)
  let pos = ref 0
  let iters = 2000

  let kernel () =
    if Bigarray.Array1.dim !stream = 0 then begin
      stream := Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18);
      Bigarray.Array1.fill !stream 0
    end;
    let stream = !stream in
    let h = ref 0 in
    for i = 0 to iters - 1 do
      let k = (i * 7919) land 1023 in
      let v = Hashtbl.find tbl k in
      Hashtbl.replace tbl k (v + 1);
      let p = !pos in
      for j = 0 to 23 do
        Bigarray.Array1.unsafe_set stream (p + j) (i + j)
      done;
      pos := (p + 24) land ((1 lsl 18) - 32);
      let f = i land 63 in
      Array.unsafe_set flts f ((Array.unsafe_get flts f *. 0.5) +. float_of_int (v land 255));
      h := !h + v
    done;
    !h

  (* wall ns of one probe *)
  let probe () =
    let t = Span.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    Span.now_ns () - t

  let t0 = ref 0
  let paused = ref 0
  let next = ref 0
  (* when each probe ran, on [clock], and its wall time in µs *)
  let at = Samples.create ()
  let took = Samples.create ()

  (* the timed window starts now *)
  let start () =
    ignore (probe ());
    t0 := Span.now_ns ();
    paused := 0;
    next := !t0

  (* seconds since [start], probes left out *)
  let clock () = float_of_int (Span.now_ns () - !t0 - !paused) /. 1e9

  (* call between ops: probes when one is due *)
  let tick () =
    let now = Span.now_ns () in
    if now >= !next then begin
      let t = float_of_int (now - !t0 - !paused) /. 1e9 in
      let d = probe () in
      Samples.add at t;
      Samples.add took (float_of_int d /. 1e3);
      paused := !paused + d;
      next := now + d + every_ns
    end

  (* [nominal_us] / median probe time, per window of [elapsed]
     seconds (the median, because a probe that a GC slice or a
     stop-the-world pause lands in reads several times too long); a
     window no probe ran in takes the nearest earlier one's, or the
     first probed one's *)
  let factors ~elapsed =
    let nw = int_of_float (elapsed /. window_s) + 1 in
    let per = Array.make nw [] in
    for i = 0 to Samples.count took - 1 do
      let w = min (nw - 1) (int_of_float (Samples.get at i /. window_s)) in
      per.(w) <- Samples.get took i :: per.(w)
    done;
    let f =
      Array.map
        (function
          | [] -> nan
          | l ->
            let a = Array.of_list l in
            Array.sort compare a;
            nominal_us /. Samples.rank a 0.5)
        per
    in
    let first = match Array.find_opt (fun x -> not (Float.is_nan x)) f with Some x -> x | None -> 1.0 in
    let last = ref first in
    Array.map
      (fun x ->
        if not (Float.is_nan x) then last := x;
        !last)
      f
end

(* {1 End-to-end figures}

   Every op's latency is scaled by the speed factor of the window it
   ended in, and the window's clock is rescaled the same way. p50 and
   p99 are nearest-rank percentiles over all ops. Ops per second is the
   median over about one-second slices of the window, each slice an
   equal share of the ops divided by its rescaled duration, so a stall
   of a few seconds that the probes miss cannot move it. *)

type figures = { ops_per_s : float; p50_us : float; p99_us : float; probes : int }

(* [~scaled:false] gives the same figures in plain wall time *)
let figures ?(scaled = true) ~(lat : Samples.t) ~(done_s : Samples.t) ~elapsed () =
  let fac = Speed.factors ~elapsed in
  let fac = if scaled then fac else Array.map (fun _ -> 1.0) fac in
  let nw = Array.length fac and w_s = Speed.window_s in
  let win t = max 0 (min (nw - 1) (int_of_float (t /. w_s))) in
  let cum = Array.make (nw + 1) 0.0 in
  Array.iteri (fun w f -> cum.(w + 1) <- cum.(w) +. (w_s *. f)) fac;
  (* rescaled seconds from the start of the window to [t] *)
  let scaled t =
    let w = win t in
    cum.(w) +. ((t -. (float_of_int w *. w_s)) *. fac.(w))
  in
  let n = Samples.count lat in
  let norm = Array.init n (fun i -> Samples.get lat i *. fac.(win (Samples.get done_s i))) in
  Array.sort compare norm;
  let k = int_of_float elapsed in
  let ops_per_s =
    if k < 3 || n < 3 * k then float_of_int n /. scaled elapsed
    else begin
      let lo i = i * n / k in
      let at i = if i = 0 then 0.0 else scaled (Samples.get done_s (lo i - 1)) in
      let rates = Array.init k (fun i -> float_of_int (lo (i + 1) - lo i) /. (at (i + 1) -. at i)) in
      Array.sort compare rates;
      Samples.rank rates 0.5
    end
  in
  { ops_per_s; p50_us = Samples.rank norm 0.5; p99_us = Samples.rank norm 0.99; probes = Samples.count Speed.took }

(* {1 Process figures} *)

(* VmHWM: the kernel's peak resident set of this process, in MiB *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    let v = ref nan in
    List.iter
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] -> (
          match String.split_on_char ' ' (String.trim rest) with
          | kb :: _ -> v := float_of_string kb /. 1024.0
          | [] -> ())
        | _ -> ())
      (String.split_on_char '\n' s);
    !v

type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words; majors = s.Gc.major_collections }

(* gc.* per-layer rows over the timed window *)
let gc_layers (a : gc_mark) ~ops =
  let b = gc_mark () in
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", per (b.minor -. a.minor), "words");
    ("gc.promoted_words_per_op", per (b.promoted -. a.promoted), "words");
    ("gc.major_per_kop", 1000.0 *. per (float_of_int (b.majors - a.majors)), "count");
  ]

(* {1 What a workload returns} *)

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

type result = {
  ops : int;
  failed : int;
  elapsed : float;  (** Seconds of the timed window, probes left out ([Speed.clock]). *)
  lat_us : Samples.t;  (** Wall time per op. *)
  done_s : Samples.t;  (** Completion time of each op on [Speed.clock]. *)
  rss_mb : float;  (** [VmHWM] when the timed window ended. *)
  checks : check list;
  layers : (string * float * string) list;  (** Per-layer rows (traced runs). *)
  counts : (string * int) list;  (** Taken after a fixed op count: must repeat per seed. *)
  fingerprint : (string * string) list;  (** Must equal between traced and untraced runs. *)
  pools : (string * int) list;  (** Pool widths used. *)
}

(* A workload after its set-up: [probe] is a pure read of the state
   set-up left (equal in every process that set up the same seed), and
   [run] is the timed window and the checks after it. *)
type prepared = { probe : unit -> string; run : unit -> result }

(* The timed window for workloads whose op is one synchronous call:
   runs [op k] until [seconds] have passed and at least [min_ops] ops
   are done, calling [checkpoint] once right after op [at] completes. *)
let timed_loop ~seconds ~min_ops ~at ~checkpoint op =
  let lat = Samples.for_ops () and done_s = Samples.for_ops () in
  Speed.start ();
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while Span.now_ns () < deadline || !k < min_ops do
    Speed.tick ();
    Span.cur_op := !k;
    let t0 = Span.now_ns () in
    op !k;
    let t1 = Span.now_ns () in
    Samples.add lat (float_of_int (t1 - t0) /. 1e3);
    Samples.add done_s (Speed.clock ());
    incr k;
    if !k = at then checkpoint ()
  done;
  (!k, Speed.clock (), lat, done_s)

(* FNV-1a over a file's first [len] bytes, for comparing trace prefixes *)
let file_prefix_digest path len =
  In_channel.with_open_bin path (fun ic ->
      let buf = Bytes.create 65536 in
      let h = ref Ihnet_record.Trace.fnv_basis and left = ref len in
      while !left > 0 do
        let r = In_channel.input ic buf 0 (min !left (Bytes.length buf)) in
        if r = 0 then left := 0
        else begin
          for i = 0 to r - 1 do
            h := Ihnet_record.Trace.fnv_int !h (Char.code (Bytes.unsafe_get buf i))
          done;
          left := !left - r
        end
      done;
      !h)

let hex64 = Printf.sprintf "%016Lx"

(* {1 Trace checks} *)

let sp_replay = Span.name "record.replay"

(* replay a recorded trace; returns the check and the replay's wall
   time in µs *)
let replay_trace ?domains path =
  let module Replay = Ihnet_record.Replay in
  let t0 = Span.now_ns () in
  let r = Span.wrap sp_replay (fun () -> Replay.replay_file ?domains path) in
  let us = float_of_int (Span.now_ns () - t0) /. 1e3 in
  let c =
    match r with
    | Ok rep when Replay.ok rep ->
      check "replay" true
        (Printf.sprintf "%d ops, %d digests, no divergence" rep.Replay.ops rep.Replay.digests_checked)
    | Ok rep -> check "replay" false (Format.asprintf "%a" Replay.pp_report rep)
    | Error e -> check "replay" false e
  in
  (c, us)

let sp_sink = Span.name "record.sink"

(* the recorder's file sink, each line a [record.sink] span *)
let trace_sink oc line = Span.wrap sp_sink (fun () -> Ihnet_record.Recorder.channel_sink oc line)
