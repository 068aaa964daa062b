#!/usr/bin/env python3
"""Repo benchmark: builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick    # all workloads at toy size, as a smoke test

Run from anywhere inside a checkout; paths resolve against the checkout
root. The optimized build goes to .bench_build/perfbench (the first run
builds, later runs only check it), reports and Perfetto traces to
.bench_out/. A measuring run's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, combined over the run's
sampler processes. --quick exits nonzero when any workload fails a gate.
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("allreduce_ft8_adcp", "churn_ls_rmt", "int_incast_ft4_rmt")
# Untraced runs measure in this many concurrent processes, each pinned to
# its own CPU. On a shared host, interference from other tenants comes and
# goes core by core, so the fastest of several cores is far steadier from
# run to run than whichever core one process landed on.
SAMPLERS = 2
# Deterministic end-to-end metrics: every sampler must report the same.
SIM_METRICS = ("sim_lat_p50_us", "sim_lat_p99_us", "sim_done_us", "delivered_frac")
# One measuring run must end well inside its 180 s budget.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists() or not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return BUILD / "perfbench"


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def sampler_cpus(trace, quick):
    """One CPU pin per sampler process (None = unpinned)."""
    cpus = sorted(os.sched_getaffinity(0))
    if trace or quick or len(cpus) < 2 * SAMPLERS:
        return [None]
    return [cpus[i * len(cpus) // SAMPLERS] for i in range(SAMPLERS)]


def measure(binary, workload, seed, seconds, trace, quick):
    """Runs one workload in its sampler processes; returns [(exit code, stdout)]."""
    sha = git_sha()
    procs = []
    for i, cpu in enumerate(sampler_cpus(trace, quick)):
        cmd = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out-dir", str(OUT if i == 0 else OUT / f"sampler{i}"), "--git-sha", sha]
        if quick:
            cmd.append("--quick")
        pin = None if cpu is None else (lambda c=cpu: os.sched_setaffinity(0, {c}))
        procs.append(subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                                      text=True, preexec_fn=pin))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    try:
        for p in procs:
            out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
            results.append((p.returncode, out))
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()
        return [(1, "")]
    return results


def combine(results):
    """One result object from the samplers' results, or None on any failure.

    Host times take the fastest sampler (wall time per packet, set-up time);
    peak RSS the largest; the simulated metrics must agree exactly.
    """
    res = [result_of(out) for _, out in results]
    if any(code != 0 for code, _ in results) or None in res:
        return None
    out = {"correct": all(r["correct"] for r in res),
           "attempted": sum(r["attempted"] for r in res),
           "failed": sum(r["failed"] for r in res),
           "metrics": res[0]["metrics"]}
    if len(res) == 1:
        return out
    values = {k: [r["metrics"][k]["value"] for r in res] for k in res[0]["metrics"]}
    out["metrics"]["wall_ns_per_pkt"]["value"] = min(values["wall_ns_per_pkt"])
    out["metrics"]["setup_s"]["value"] = min(values["setup_s"])
    out["metrics"]["peak_rss_mb"]["value"] = max(values["peak_rss_mb"])
    for k in SIM_METRICS:
        if len(set(values[k])) != 1:
            log(f"samplers disagree on {k}: {values[k]}")
            out["correct"] = False
    return out


def result_of(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run every workload at toy size; exit nonzero on a failed gate")
    args = ap.parse_args()
    if not args.quick and args.workload is None:
        ap.error("--workload is required unless --quick is given")

    binary = build()
    if binary is None or not binary.exists():
        log("build failed; no result")
        return 1

    if args.quick:
        failed = []
        for w in WORKLOADS:
            results = measure(binary, w, args.seed, 0, True, True)
            sys.stdout.write(results[0][1])
            res = combine(results)
            if res is None or not res["correct"] or res["failed"] != 0:
                failed.append(w)
        log("quick: " + (f"FAILED {' '.join(failed)}" if failed else "all workloads passed"))
        return 1 if failed else 0

    results = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1, False)
    for i, (_, out) in enumerate(results):
        lines = out.splitlines()
        print(f"sampler {i}:")
        print("\n".join(lines[:-1] if result_of(out) is not None else lines))
    res = combine(results)
    if res is None:
        log("a sampler failed; no result")
        return 1
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
