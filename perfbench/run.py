#!/usr/bin/env python3
"""End-to-end sizing benchmark for the KATO library.

Builds perfbench/ (the kato library from src/ plus the kato_perfbench probe)
into .bench_build/perfbench, runs one workload in one process for a time
budget, checks its outputs and prints one JSON result as the last line of
stdout:

    python3 perfbench/run.py --workload table1_opamp2 --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 prints the per-layer metrics: counts and stage times from the
untraced runs, plus one traced run of the first seed per pass.  The last
traced run's Chrome trace is written to .bench_build/traces/<workload>.json
and split into a per-layer self-time table (on stderr).
--update-reference rewrites reference.json from the current build's
expert-design outputs.  See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
THREADS = 4

# Defined in kato_perfbench.cpp; each run record carries its settings.
WORKLOADS = ("table1_opamp2", "transfer_opamp2", "corners_ac", "corners_tran")

# Variables that change what a timed run measures: KATO_TRACE is read before
# main() and would trace the untraced runs, KATO_FAULT injects failures, the
# rest switch solver paths, seeds or deck lookup.
FORBIDDEN_ENV = (
    "KATO_TRACE", "KATO_STATS", "KATO_RUN_LOG", "KATO_FAULT",
    "KATO_EVAL_DEADLINE_MS", "KATO_RECOVERY", "KATO_SPARSE",
    "KATO_DEVICE_TABLE", "KATO_SEEDS", "KATO_NETLIST_DIR",
)

# Reference time of the probe's speed kernel (kato_perfbench.cpp,
# speed_probe).  End-to-end times are scaled to the speed at which the kernel
# takes this long; the value only sets the scale, both sides of a comparison
# use the same one.
PROBE_REF_NS = 100e6

EXPERT_RTOL = 1e-6
NS = 1e-9
MS = 1e-6


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(THREADS)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return BUILD / "kato_perfbench"


def run_probe(binary, args):
    env = dict(os.environ, KATO_THREADS=str(THREADS))
    cmd = [str(binary), "--root", str(ROOT), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = ROOT / ".bench_build" / "traces" / f"{args.workload}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=170)
    if proc.returncode != 0:
        fail(f"probe exited with code {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    return records, trace_path


# --- Per-run derived quantities ---------------------------------------------

def iteration_gaps(run):
    """Model turnaround per BO iteration, in ns, in iteration order.

    An iteration ends with the target call that brings the candidate count
    to n_init + k * batch (STL issues two calls per iteration, one of which
    can be empty); its turnaround runs from the end of the previous
    iteration's last call to the start of its first non-empty call.
    """
    n_init, batch = run["n_init"], run["batch"]
    gaps = []
    done = 0
    prev_end = None
    for t0, t1, n, _ in run["calls"]:
        if n == 0:
            continue
        if done >= n_init and (done - n_init) % batch == 0:
            gaps.append(t0 - prev_end)
        done += n
        prev_end = t1
    return gaps


def setup_ns(run):
    return run["calls"][0][1]  # end of the DOE evaluate_batch


def check_run(run, errors):
    cands = sum(c[2] for c in run["calls"])
    want = run["n_init"] + run["iterations"] * run["batch"]
    if cands != want:
        errors.append(f"seed {run['seed']}: {cands} candidates, want {want}")
    if run["calls"][0][2] != run["n_init"]:
        errors.append(f"seed {run['seed']}: first call is not the DOE")
    if run["source_rows"] != run["source_samples"]:
        errors.append(f"seed {run['seed']}: {run['source_rows']} source rows")
    if run["feasible"] and run["best_obj"] is None:
        errors.append(f"seed {run['seed']}: best_obj is not finite")
    if len(iteration_gaps(run)) != run["iterations"]:
        errors.append(f"seed {run['seed']}: iteration split failed")


def check_expert(workload, expert, errors):
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None:
        errors.append(f"no reference for {workload} in {REFERENCE.name}")
        return
    for key, want in ref.items():
        got = expert.get(key)
        ok = got is not None and len(got) == len(want) and all(
            math.isclose(g, w, rel_tol=EXPERT_RTOL, abs_tol=1e-12)
            for g, w in zip(got, want))
        if not ok:
            errors.append(f"expert {key} metrics {got} != reference {want}")


# --- Metrics ----------------------------------------------------------------

def candidates(runs):
    """(attempted, failed) candidate simulations, target plus source."""
    calls = [c for r in runs for c in r["calls"] + r["source_calls"]]
    return sum(c[2] for c in calls), sum(c[3] for c in calls)


def speed(run):
    """Reference-speed factor of a run: PROBE_REF_NS / its speed probe."""
    return PROBE_REF_NS / run["speed_probe_ns"]


def end_to_end(runs):
    """Times are medians over runs, each scaled by its speed factor."""
    gaps = [g * speed(r) for r in runs for g in iteration_gaps(r)]
    attempted, failed = candidates(runs)
    return {
        "wall_s": (statistics.median(r["wall_ns"] * speed(r) for r in runs)
                   * NS, "s"),
        "setup_s": (statistics.median(setup_ns(r) * speed(r) for r in runs)
                    * NS, "s"),
        "propose_ms_p50": (statistics.median(gaps) * MS, "ms"),
        # Largest per-run peak of the first pass: later passes rerun the
        # same seeds, and heap growth across them would tie the peak to how
        # many passes the machine's speed allowed.
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in runs if r["pass"] == 0)
                        / 1024.0, "MB"),
        "sim_ok_frac": ((attempted - failed) / attempted, "1"),
    }


def hist_quantile(buckets, q):
    """Bucket-quantile over merged sparse histograms ({lower_ns: count})."""
    total = sum(buckets.values())
    rank = max(1, math.ceil(q * total))
    seen = 0
    for lower in sorted(buckets):
        seen += buckets[lower]
        if seen >= rank:
            return lower
    return 0


def interval_union(spans):
    merged = []
    for a, b in sorted(spans):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def covered(union, a, b):
    return sum(max(0, min(b, y) - max(a, x)) for x, y in union)


# Trace lines (one event per line) whose spans the layer table needs.
WANTED_SPANS = ('{"name":"bench.', '{"name":"gp_fit"', '{"name":"acquisition"')


def layer_table(trace_path):
    """Self time per layer of the traced run, in s.

    The probe's own spans partition the run: bench.load, bench.source (whose
    simulator calls are bench.sim children), bench.doe, bench.sim and
    bench.model (gaps between target simulator calls).  Model gaps are split
    by the library's gp_fit and acquisition spans on any thread.
    """
    spans = {}
    with open(trace_path) as f:
        for line in f:
            if not line.startswith(WANTED_SPANS):
                continue
            ev = json.loads(line.rstrip().rstrip(","))
            spans.setdefault(ev["name"], []).append(
                (ev["ts"], ev["ts"] + ev["dur"]))
    us = 1e-6
    fit = interval_union(spans.get("gp_fit", []))
    acq = interval_union(spans.get("acquisition", []))
    model_fit = model_acq = model_all = 0.0
    for a, b in spans.get("bench.model", []):
        f = covered(fit, a, b)
        model_fit += f
        model_acq += min(covered(acq, a, b), (b - a) - f)
        model_all += b - a
    source = sum(b - a for a, b in spans.get("bench.source", []))
    sims = spans.get("bench.sim", [])
    source_sims = sum(
        b - a for a, b in sims
        if any(x <= a and b <= y for x, y in spans.get("bench.source", [])))
    return {
        "load": sum(b - a for a, b in spans.get("bench.load", [])) * us,
        "source": (source - source_sims) * us,
        "doe": sum(b - a for a, b in spans.get("bench.doe", [])) * us,
        "sim": sum(b - a for a, b in sims) * us,
        "model.fit": model_fit * us,
        "model.acq": model_acq * us,
        "model.other": (model_all - model_fit - model_acq) * us,
    }


def trace_overhead(runs, traced):
    """Median over passes of traced / untraced wall time of the same seed."""
    untraced = {(r["pass"], r["seed"]): r["wall_ns"] for r in runs}
    return statistics.median(t["wall_ns"] / untraced[t["pass"], t["seed"]]
                             for t in traced)


def per_layer(runs, traced, trace_path):
    first = runs[0]  # counts come from the first seed: they repeat exactly
    calls = [c for r in runs for c in r["calls"] + r["source_calls"]]
    nonempty = [c[1] - c[0] for c in calls if c[2] > 0]
    attempted, failed = candidates(runs)

    def med(fn):
        return statistics.median(fn(r) for r in runs)

    def sim_busy(r):
        return sum(c[1] - c[0] for c in r["calls"] + r["source_calls"])

    def hist_sum(r, stage):
        return r["hist"][stage]["sum_ns"]

    gaps = [iteration_gaps(r) for r in runs]
    hyper = [g[i] for r, g in zip(runs, gaps)
             for i in range(1, len(g)) if i % r["hyper_every"] == 0]
    post = [g[i] for r, g in zip(runs, gaps)
            for i in range(len(g)) if i % r["hyper_every"] != 0]
    evals = {}
    for r in runs:
        for lower, n in r["eval_buckets"]:
            evals[lower] = evals.get(lower, 0) + n

    table = layer_table(trace_path)  # the file holds the last traced run
    wall = traced[-1]["wall_ns"] * NS
    m = {
        "wall_raw_s": (med(lambda r: r["wall_ns"]) * NS, "s"),
        "cpu_s": (med(lambda r: r["cpu_ns"]) * NS, "s"),
        "speed_probe_ms": (med(lambda r: r["speed_probe_ns"]) * MS, "ms"),
        "netlist.load_ms": (med(lambda r: r["load_ns"]) * MS, "ms"),
        "transfer.source_s": (med(lambda r: r["source_ns"]) * NS, "s"),
        "sim.busy_s": (med(sim_busy) * NS, "s"),
        "sim.doe_s": (med(lambda r: r["calls"][0][1] - r["calls"][0][0]) * NS,
                      "s"),
        "sim.candidates": (attempted // len(runs), "count"),
        "sim.failed": (failed // len(runs), "count"),
        "sim.fail_frac": (failed / attempted, "1"),
        "sim.cand_per_s": (attempted / (sum(map(sim_busy, runs)) * NS), "1/s"),
        "sim.batch_ms_p50": (statistics.median(nonempty) * MS, "ms"),
        "sim.batch_ms_max": (max(nonempty) * MS, "ms"),
        "sim.dc_s": (med(lambda r: hist_sum(r, "dc")) * NS, "s"),
        "sim.ac_s": (med(lambda r: hist_sum(r, "ac")) * NS, "s"),
        "sim.tran_s": (med(lambda r: hist_sum(r, "tran")) * NS, "s"),
        "sim.eval_ms_p50": (hist_quantile(evals, 0.5) * MS, "ms"),
        "sim.eval_ms_p99": (hist_quantile(evals, 0.99) * MS, "ms"),
        "sim.evals": (first["obs"]["evals"], "count"),
        "sim.newton_iters": (first["obs"]["newton_iters"], "count"),
        "sim.ac_points": (first["obs"]["ac_points"], "count"),
        "sim.tran_steps": (first["obs"]["tran_steps_accepted"], "count"),
        "sim.lu_refactors": (first["obs"]["lu_refactors"], "count"),
        "sim.pool_util": (sum(hist_sum(r, "eval") for r in runs)
                          / (sum(map(sim_busy, runs)) * THREADS), "1"),
        "model.busy_s": (med(lambda r: sum(iteration_gaps(r))) * NS, "s"),
        "model.first_propose_ms": (med(lambda r: iteration_gaps(r)[0]) * MS,
                                   "ms"),
        "model.propose_hyper_ms_p50": (statistics.median(hyper) * MS, "ms"),
        "model.propose_post_ms_p50": (statistics.median(post) * MS, "ms"),
        "model.acq_s": (med(lambda r: hist_sum(r, "acquisition")) * NS, "s"),
        "model.acq_calls": (first["hist"]["acquisition"]["count"], "count"),
        "model.fit_s": (med(lambda r: hist_sum(r, "gp_fit")) * NS, "s"),
        "model.fits": (first["obs"]["gp_fits"], "count"),
        "model.fit_iters": (first["obs"]["gp_fit_iters"], "count"),
        "model.other_s": (table["model.other"], "s"),
        "trace_overhead_ratio": (trace_overhead(runs, traced), "1"),
    }
    for layer, secs in table.items():
        m[f"layer.{layer}_s"] = (secs, "s")
    m["layer.coverage"] = (sum(table.values()) / wall, "1")
    return m, table, wall


def print_layer_table(workload, table, wall):
    out = sys.stderr
    print(f"per-layer self time, traced {workload} run "
          f"(wall {wall:.3f} s):", file=out)
    for layer, secs in table.items():
        print(f"  {layer:<12} {secs:9.3f} s  {100 * secs / wall:6.1f} %",
              file=out)
    rest = wall - sum(table.values())
    print(f"  {'unattributed':<12} {rest:9.3f} s  {100 * rest / wall:6.1f} %",
          file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    bad = [v for v in FORBIDDEN_ENV if v in os.environ]
    if bad:
        fail("refusing to run with " + ", ".join(bad) + " set; unset it")

    binary = build()
    records, trace_path = run_probe(binary, args)
    expert = next(r for r in records if r["record"] == "expert")
    runs = [r for r in records if r["record"] == "run" and not r["traced"]]
    traced = [r for r in records if r["record"] == "run" and r["traced"]]

    if args.update_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = {k: v for k, v in expert.items()
                              if k != "record"}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    errors = []
    check_expert(args.workload, expert, errors)
    for r in runs + traced:
        check_run(r, errors)
    for r in runs + traced:
        print(f"run seed={r['seed']} traced={r['traced']} "
              f"wall={r['wall_ns'] * NS:.3f}s best_obj={r['best_obj']}",
              file=sys.stderr)

    if args.trace:
        metrics, table, wall = per_layer(runs, traced, trace_path)
        print_layer_table(args.workload, table, wall)
    else:
        metrics = end_to_end(runs)

    attempted, failed = candidates(runs + traced)
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
