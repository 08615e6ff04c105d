(** The experiment registry: id → runner. *)

val all : (string * (unit -> Common.result)) list
(** In order E1 … E11. *)

val find : string -> (unit -> Common.result) option
(** Case-insensitive lookup by id ("e4", "E4"). *)

val reproduced : Common.result -> bool
(** [true] unless the result's verdict contains ["MISMATCH"]. *)

val run_all : unit -> Common.result list
(** Run every experiment, printing each result as it completes. *)
