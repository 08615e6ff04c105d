module Chanfault = Ihnet_engine.Chanfault
module Rng = Ihnet_util.Rng

(* In-flight messages carry (sequence-at-send, rounds-remaining).
   Delivery order is by send sequence so duplicates sit adjacent and
   reordering can only come from the fault model's delays — never from
   implementation detail. *)
type 'a entry = { e_seq : int; mutable e_left : int; e_msg : 'a }

type 'a t = {
  rng : Rng.t;
  mutable flt : Chanfault.fault;
  mutable next_seq : int;
  mutable inflight : 'a entry list;  (* newest first *)
}

let create rng = { rng; flt = Chanfault.none; next_seq = 0; inflight = [] }
let set_fault t f = t.flt <- f
let fault t = t.flt

let send t msg =
  match Chanfault.apply t.rng t.flt with
  | Chanfault.Dropped -> ()
  | Chanfault.Delivered { delay; copies } ->
    for _ = 1 to copies do
      t.inflight <- { e_seq = t.next_seq; e_left = delay; e_msg = msg } :: t.inflight;
      t.next_seq <- t.next_seq + 1
    done

let tick t =
  let due, rest = List.partition (fun e -> e.e_left <= 0) t.inflight in
  List.iter (fun e -> e.e_left <- e.e_left - 1) rest;
  t.inflight <- rest;
  List.sort (fun a b -> compare a.e_seq b.e_seq) due |> List.map (fun e -> e.e_msg)

let clear t = t.inflight <- []
let in_flight t = List.length t.inflight
let exists t p = List.exists (fun e -> p e.e_msg) t.inflight
let rng_peek t = Rng.peek t.rng
