#!/usr/bin/env python3
"""The repository benchmark.  Run it from the root of a checkout:

    python3 perfbench/run.py [--workload olap|oltp|simulate|all]
                             [--seed N] [--seconds S] [--trace 0|1]

It builds perfbench/bench.exe with dune, runs each workload in its own
process pinned to one CPU, checks every answer, and prints each metric
with its unit and sample count.  setup_s is the median over SETUPS fresh
processes of the workload's set-up.  Every time is scaled to the
reference host speed by the calibration kernel timed next to it (see
calib.ml); the report prints the raw time beside the scaled one, and the
JSON result holds the scaled ones.  With one workload the last line of
stdout is the JSON result: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  A traced run runs the
workload twice from the same seed, untraced and then traced, and reports
the tracing overhead between the two.  With --workload all it prints
every workload's report.  The exit code is 1 when an answer check fails
and 2 when the program cannot be built or run.

Each workload runs a fixed number of ops: --seconds times the workload's
nominal rate on the reference host, never fewer than its percentiles
need.  The op sequence is a function of the seed and the op count alone,
so every commit runs the same ops and the counts below must repeat.

Files it leaves in the checkout, all under perfbench/_out/: the spans of
the last traced run of each workload (spans/<workload>.tsv) and the
counts of each (workload, seed, op count) (counts/), which the next run
with the same key compares against.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
OUT = os.path.join(BENCH_DIR, "_out")
EXE = os.path.join("_build", "default", BENCH_DIR, "bench.exe")
# Per workload: why it exists, its sizes, loop, flush policy, CPU
# confinement, what the seed draws, the layers it exercises and bypasses;
# and the layers left out of the benchmark, and the steadiness guards.
RECORDS = os.path.join(BENCH_DIR, "workloads.json")
# Wall-clock budget of all workload processes of one workload, counted
# from the end of the build; the whole command must end within 180 s.
BUDGET_S = 170
# setup_s is the median over this many fresh processes, each of which sets
# up once: the measured one and SETUPS - 1 that stop after their set-up.
# One set-up per process keeps the garbage of other set-ups out of the
# measured process's peak RSS.
SETUPS = 5

# rate: ops per second on the reference host (2 vCPU Xeon, KVM guest).
# block: op count granularity (a round of every op type).
# min_ops: the fewest ops that leave ten samples beyond the tail percentile.
WORKLOADS = {
    "olap": {"rate": 16.0, "block": 8, "min_ops": 208},
    "oltp": {"rate": 2400.0, "block": 1, "min_ops": 1000},
    "simulate": {"rate": 9.0, "block": 30, "min_ops": 210},
}

# What the two shared latency metrics are on each workload: BENCHMARK.json
# names one metric list for all workloads, so a query latency and a
# transaction latency share a name there.
ALIASES = {
    "olap": {"op_geomean_ms": "query_geomean_ms", "tail_ms": "query_p95_ms"},
    "simulate": {"op_geomean_ms": "query_geomean_ms", "tail_ms": "query_p95_ms"},
    "oltp": {"op_geomean_ms": "txn_p50_ms", "tail_ms": "txn_p99_ms"},
}

def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def op_count(workload, seconds):
    w = WORKLOADS[workload]
    ops = max(w["min_ops"], int(round(seconds * w["rate"])))
    return -(-ops // w["block"]) * w["block"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project or lib/ is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("dune build failed")


def pin_to_one_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def run_process(workload, seed, ops, trace, deadline):
    """Run one workload in a fresh process; return its parsed report.
    With ops 0 the process only sets up."""
    run_dir = os.path.abspath(os.path.join(OUT, "run-%d" % os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    cmd = [
        os.path.abspath(EXE),
        "--workload", workload,
        "--seed", str(seed),
        "--ops", str(ops),
        "--trace", str(trace),
    ]
    if trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.abspath(os.path.join(spans_dir, workload + ".tsv"))]
    # cc and a fresh compiled-object cache write under the run directory:
    # a cache kept between runs would let later runs skip every compile
    env = dict(os.environ, TMPDIR=os.path.join(run_dir, "tmp"),
               MRDB_COMPILE_CACHE=os.path.join(run_dir, "cc"))
    env.pop("MRDB_NO_CC", None)
    try:
        proc = subprocess.Popen(
            cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin_to_one_cpu,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("%s did not finish within %d s" % (workload, BUDGET_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail("%s printed no report" % workload)
    return json.loads(lines[-1])


def is_gc(metric):
    return metric.startswith("gc.")


def count_mismatches(a, b):
    return [
        "%s: %r vs %r" % (k, a[k], b[k])
        for k in sorted(a)
        if k in b and a[k] != b[k]
    ]


def compare_with_last_run(workload, seed, ops, counts):
    """Compare this run's counts with the last run of the same key."""
    counts_dir = os.path.join(OUT, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    path = os.path.join(counts_dir, "%s-seed%d-ops%d.json" % (workload, seed, ops))
    mismatches = []
    if os.path.isfile(path):
        with open(path) as f:
            mismatches = count_mismatches(json.load(f), counts)
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return mismatches


def print_metrics(title, metrics, aliases):
    print(title)
    for name, m in metrics.items():
        label = name + (" (%s)" % aliases[name] if name in aliases else "")
        raw = m.get("raw", m["value"])
        raw = "" if raw == m["value"] else "raw %.6g" % raw
        print("  %-34s %16.6g %-9s n=%-6d %s"
              % (label, m["value"], m["unit"], m["n"], raw))


def run_workload(workload, seed, seconds, trace, record):
    """Run one workload; print its report; return (ok, attempted, failed,
    end-to-end metrics, per-layer metrics)."""
    ops = op_count(workload, seconds)
    deadline = time.monotonic() + BUDGET_S
    base = run_process(workload, seed, ops, 0, deadline)
    reports = [base]
    layers = {}
    notes = []
    if not trace:
        setups = [base["e2e"]["setup_s"]] + [
            run_process(workload, seed, 0, 0, deadline)["e2e"]["setup_s"]
            for _ in range(SETUPS - 1)
        ]
        base["e2e"]["setup_s"] = {
            "value": statistics.median(s["value"] for s in setups),
            "raw": statistics.median(s["raw"] for s in setups),
            "unit": "s", "n": SETUPS,
        }
    else:
        traced = run_process(workload, seed, ops, 1, deadline)
        reports.append(traced)
        layers = dict(traced["layers"])
        # The span arrays of the traced run add GC work of their own, so the
        # GC counts are the untraced program's, and only they may differ.
        layers.update((k, v) for k, v in base["layers"].items() if is_gc(k))
        slow = base["e2e"]["ops_per_s"]["value"] / traced["e2e"]["ops_per_s"]["value"]
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (slow - 1.0), "unit": "%", "n": base["attempted"],
        }
        traced_counts = {k: v for k, v in traced["counts"].items() if not is_gc(k)}
        for m in count_mismatches(base["counts"], traced_counts):
            notes.append("count differs between the untraced and traced run: " + m)
    for m in compare_with_last_run(workload, seed, base["attempted"], base["counts"]):
        notes.append("count differs from the last run of this seed: " + m)

    failures = [f for r in reports for f in r["failures"]]
    attempted = base["attempted"]
    e2e = base["e2e"]
    print("%s: seed %d, %d ops, %d failed, error_rate %g (n=%d)"
          % (workload, seed, attempted, len(failures),
             len(failures) / attempted, attempted))
    for key in ("loop", "flush", "cpu", "sizes"):
        print("  %s: %s" % (key, record[key]))
    print_metrics("end to end (untraced run)", e2e, ALIASES[workload])
    if trace:
        print_metrics("per layer (traced run)", layers, {})
    print("counts: " + json.dumps(base["counts"], sort_keys=True))
    for n in notes:
        print("NOTE " + n)
    for f in failures:
        print("FAILED " + f)
    return not failures, attempted, len(failures), e2e, layers


def result_metrics(spec, produced, fill_missing):
    metrics = {}
    for m in spec:
        got = produced.get(m["name"])
        if got is None:
            if not fill_missing:
                fail("metric %s was not measured" % m["name"])
            # a layer this workload bypasses did no work
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json is missing: run from the root of a checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(RECORDS) as f:
        records = json.load(f)["workloads"]
    build()

    if args.workload == "all":
        ok = True
        for w in sorted(WORKLOADS):
            ok &= run_workload(w, args.seed, args.seconds, args.trace,
                               records[w])[0]
            print()
        sys.exit(0 if ok else 1)

    ok, attempted, failed, e2e, layers = run_workload(
        args.workload, args.seed, args.seconds, args.trace,
        records[args.workload])
    if args.trace:
        metrics = result_metrics(spec["per_layer"], layers, fill_missing=True)
    else:
        metrics = result_metrics(spec["end_to_end"], e2e, fill_missing=False)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
