#!/usr/bin/env python3
"""The repository benchmark: build perfbench.exe, run one workload, check it.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run also starts the program SETUPS times to set the workload up
and exit, half of them before the measured run and half after it:
setup_s is the median time from starting a process to the end of its
set-up, over those processes and the measured run. --trace 0 prints
the end-to-end metrics of one untraced run. Its op times and rates are
given at a reference host speed, measured by timing a fixed probe
alongside the work; the report lines also give them in plain wall
time. --trace 1 runs the workload twice with the same seed, untraced
and then traced; it
prints the per-layer metrics of the traced run plus the tracing
overhead (traced minus untraced, per end-to-end metric), fails unless
both runs leave the same fingerprints (scan digests, trace bytes, fleet
decision fingerprint), and writes the raw span log to
SPANS_DIR/<workload>.spans.tsv. The last line of standard output is
the JSON result; the lines above it are a readable report. The process
exits 1 when any output check fails and 2 when it cannot build or run
the program. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("daemon-write", "daemon-read", "host-churn", "fleet-rounds")
DEFAULT_SEED = 1
# Named before any tuning and never used for it: a later claim of a
# gain must also hold on this seed.
HELD_OUT_SEED = 1009
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SCRATCH = ".perfbench_tmp"
SPANS_DIR = ".perfbench_spans"
# set-up-only processes per run, besides the measured run's own set-up;
# half run before the measured run and half after it, so that setup_s
# samples the host over the whole run, not over one second of it
SETUPS = 8
# a single run must end within 180 s; the first build may take longer
BUILD_TIMEOUT = 840
RUN_BUDGET = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def child_env():
    env = dict(os.environ, DUNE_CACHE="disabled")
    # the workloads pin their own pool widths and warm-start setting
    for k in ("IHNET_DOMAINS", "IHNET_WARM", "OCAMLRUNPARAM"):
        env.pop(k, None)
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a checkout of the repository (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_child(args, traced, deadline, setup_only=False):
    """One perfbench.exe process; returns its parsed JSON report, with
    setup_s, the seconds from starting the process to the end of its
    set-up."""
    workdir = os.path.join(SCRATCH, "%s-%d-%d-%d" % (args.workload, args.seed, int(traced), os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.abspath(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    try:
        # the program reads the same clock (CLOCK_MONOTONIC)
        spawned = time.monotonic_ns()
        r = subprocess.run(cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
                           universal_newlines=True)
        if r.returncode == 0 and traced and not setup_only:
            os.makedirs(SPANS_DIR, exist_ok=True)
            os.replace(os.path.join(workdir, "spans.tsv"),
                       os.path.join(SPANS_DIR, args.workload + ".spans.tsv"))
    except subprocess.TimeoutExpired:
        die("%s run exceeded its time budget" % args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    if r.returncode != 0:
        die("perfbench.exe exited with code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
        rep["setup_s"] = (int(rep["setup_done_ns"]) - spawned) / 1e9
    except (IndexError, KeyError, ValueError):
        die("perfbench.exe printed no report")
    return rep


def number(name, v):
    """A metric value as a finite float; non-finite values arrive as
    the strings "nan", "inf" and "-inf"."""
    if isinstance(v, (int, float)) and math.isfinite(v):
        return float(v)
    die("metric %s is not a finite number: %r" % (name, v))


def source_revision():
    rev = None
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, universal_newlines=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return rev, h.hexdigest()[:16]


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    deadline = time.monotonic() + RUN_BUDGET
    setup_only = lambda: run_child(args, False, deadline, setup_only=True)
    setups = [setup_only() for _ in range(SETUPS // 2)]
    base = run_child(args, False, deadline)
    setups += [setup_only() for _ in range(SETUPS - SETUPS // 2)]
    runs = [base]
    if args.trace:
        runs.append(run_child(args, True, deadline))
    res = runs[-1]
    for r in runs:
        r["e2e"]["setup_s"] = r["setup_s"]
    setup_times = [r["setup_s"] for r in setups + [base]]
    base["e2e"]["setup_s"] = statistics.median(setup_times)

    probes = [r["setup_probe"] for r in setups + runs]
    checks = [{"name": "setup_determinism", "ok": len(set(probes)) == 1,
               "detail": "%d processes set up, state after set-up %s"
                         % (len(probes), "identical" if len(set(probes)) == 1 else "differs: " + " ".join(probes))}]
    checks += [c for r in runs for c in r["checks"]]
    flagged = []
    if args.trace:
        same = base["fingerprint"] == res["fingerprint"]
        checks.append({"name": "trace_no_impact", "ok": same,
                       "detail": "fingerprints %s between the untraced and the traced run"
                                 % ("equal" if same else "differ: %s vs %s" % (base["fingerprint"], res["fingerprint"]))})
        flagged = sorted(k for k in set(base["counts"]) | set(res["counts"])
                         if base["counts"].get(k) != res["counts"].get(k))
    correct = all(c["ok"] for c in checks)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        values = {k: (number(k, v["value"]), v["unit"]) for k, v in res["layers"].items()}
        for k, u in units.items():
            # the untraced run's own set-up, not the median
            b = base["setup_s"] if k == "setup_s" else base["e2e"][k]
            values["trace_overhead." + k] = (number(k, res["e2e"][k]) - number(k, b), u)
        metrics, absent = {}, []
        for m in spec["per_layer"]:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}
            else:
                metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
                absent.append(m["name"])
    else:
        metrics = {k: {"value": number(k, res["e2e"][k]), "unit": u} for k, u in units.items()}

    rev, src = source_revision()
    print("perfbench %s  seed %d  %d s  trace %d  (default seed %d, held-out seed %d)"
        % (args.workload, args.seed, args.seconds, args.trace, DEFAULT_SEED, HELD_OUT_SEED))
    print("provenance: nproc %s, OCaml %s, git %s, source %s, pools %s"
        % (os.cpu_count(), res["ocaml"], rev or "none (not a git checkout)", src,
           " ".join("%s=%d" % kv for kv in sorted(res["pools"].items()))))
    for r in runs:
        e = r["e2e"]
        print("%s run: %d ops in %.3f s, %d failed" % ("traced" if r["traced"] else "untraced",
                                                      r["ops"], r["elapsed_s"], r["failed"]))
        w = r["wall"]
        print("  times at the reference host speed (%d speed probes; wall time in brackets)" % r["probes"])
        print("  ops_per_s    %12s 1/s   (n=%d ops; wall %s)" % (fmt(e["ops_per_s"]), r["ops"], fmt(w["ops_per_s"])))
        print("  op_p50_us    %12s us    (n=%d samples; wall %s)" % (fmt(e["op_p50_us"]), r["samples"], fmt(w["op_p50_us"])))
        print("  op_p99_us    %12s us    (n=%d samples; wall %s)" % (fmt(e["op_p99_us"]), r["samples"], fmt(w["op_p99_us"])))
        print("  fail_ratio   %12s       (n=%d ops)" % (fmt(e["fail_ratio"]), r["ops"]))
        if r is base:
            print("  setup_s      %12s s     (median of n=%d cold set-ups: %s)"
                % (fmt(e["setup_s"]), len(setup_times), " ".join(fmt(t) for t in setup_times)))
        else:
            print("  setup_s      %12s s     (n=1 cold set-up)" % fmt(e["setup_s"]))
        print("  peak_rss_mb  %12s MB    (VmHWM, n=1)" % fmt(e["peak_rss_mb"]))
    for c in checks:
        print("check %-18s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL", c["detail"]))
    counts = res["counts"]
    if "commands" in counts and counts.get("epochs"):
        counts = dict(counts, commands_per_epoch_x1000=counts["commands"] * 1000 // counts["epochs"])
    print("exact counts at the checkpoint: " + " ".join("%s=%s" % kv for kv in sorted(counts.items())))
    if args.trace:
        print("counts that did not repeat between the two runs: %s" % (" ".join(flagged) or "none"))
        print("fingerprint: " + " ".join("%s=%s" % kv for kv in sorted(res["fingerprint"].items())))
        for name, s in sorted(res.get("spans", {}).items()):
            print("span %-18s count %-8d total %12.1f us  self %12.1f us"
                % (name, s["count"], s["total_us"], s["self_us"]))
        print("raw span log: %s" % os.path.join(SPANS_DIR, args.workload + ".spans.tsv"))
        print("per-layer metrics not exercised by %s (reported as 0): %s"
            % (args.workload, " ".join(absent) or "none"))
    print(json.dumps({"correct": correct, "attempted": res["ops"], "failed": res["failed"],
                    "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
