(* engine.* rows from the fabric's own counters, taken as deltas over
   the timed window. All are pure reads. *)

module E = Ihnet_engine

type mark = {
  reallocs : int;
  hits : int;
  misses : int;
  full : int;
  incremental : int;
  unchanged : int;
  completions : int;
}

let mark fab completions =
  let s = E.Fabric.scan_solver_stats fab in
  {
    reallocs = E.Fabric.reallocations fab;
    hits = E.Fabric.warm_hits fab;
    misses = E.Fabric.warm_misses fab;
    full = s.E.Fairshare.full_rebuilds;
    incremental = s.E.Fairshare.incremental;
    unchanged = s.E.Fairshare.unchanged;
    completions = !completions;
  }

let rows a b ~ops =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  let lookups = b.hits - a.hits + (b.misses - a.misses) in
  [
    ("engine.epochs_per_op", per (b.reallocs - a.reallocs), "count");
    ( "engine.memo_hit_ratio",
      (if lookups = 0 then 0.0 else float_of_int (b.hits - a.hits) /. float_of_int lookups),
      "ratio" );
    ("engine.solver_full_rebuilds", per (b.full - a.full), "count");
    ("engine.solver_incremental", per (b.incremental - a.incremental), "count");
    ("engine.solver_unchanged", per (b.unchanged - a.unchanged), "count");
    ("engine.completions_per_op", per (b.completions - a.completions), "count");
  ]
