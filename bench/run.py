"""Benchmark of the spinmoments CLI, end to end and per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI argv lists, run through
spinmoments.cli.main in a fresh interpreter per sample, one at a time, so
every sample pays the lru_caches cold like a CLI user does.  Samples repeat
until --seconds is used up (at least one).  Every output row is checked
against bench/reference.py; bad rows and non-zero exits count as failed.

--trace 0 reports the end-to-end metrics (medians over samples):
  wall_s       first main() call to last return, tracing off
  setup_s      fresh interpreter until `import spinmoments.cli` returns
  peak_rss_mb  peak resident set (VmHWM) of the sample's interpreter
--trace 1 alternates untraced and traced samples and reports per-layer
metrics from the traced ones (see bench/README.md).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import reference
import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 1  # interpreters that only import; every workload sample adds one more
HARD_LIMIT_S = 165.0  # every child is killed by then, so a run ends within 180 s

# Figures derived from call arguments and results rather than timed.
COMPUTED = (
    "spin_algebra.cj_over_floor_max",
    "oracle.amp_site_ops",
    "oracle.bytes_computed",
    "states.dense_amplitudes",
    "optimizer.objective_calls_per_opt",
)


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# run metadata


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_sizes() -> dict[str, int]:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def blas_threads(nproc: int) -> int:
    asked = [int(os.environ[v]) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
             if os.environ.get(v, "").isdigit()]
    return max(1, min([nproc, *asked]))


def metadata(seed: int, threads: int, nproc: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "caches": _cache_sizes(),
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# children


def spawn(argvs: list[list[str]], trace: bool, env: dict, deadline: float) -> dict:
    """Run one child interpreter to completion and return its report."""
    spec = {"argvs": argvs, "trace": trace}
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 0.1),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"child exceeded the {HARD_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cj_over_floor_max(counters: dict) -> float:
    """Largest C_J used minus the eigenvalue-route floor; 0 when none was used."""
    used = {int(k[3:]): v for k, v in counters.items() if k.startswith("cj.")}
    return max((c - reference.cj_floor(tj) for tj, c in used.items()), default=0.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workload = WORKLOADS[name]
    argvs = workload.argvs(seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S

    setup = [spawn([], False, env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    samples = {False: [], True: []}
    tally = {"attempted": 0, "failed": 0}
    notes: list[str] = []

    def sample(traced: bool) -> dict | None:
        try:
            report = spawn(argvs, traced, env, deadline)
            outputs = report["outputs"]
        except ChildFailed as exc:
            report = None
            outputs = [{"rc": -1, "stdout": "", "stderr": str(exc)} for _ in argvs]
        checked, bad, why = workload.check(outputs)
        tally["attempted"] += checked
        tally["failed"] += bad
        notes.extend(why)
        if report is not None:
            setup.append(report["setup_s"])
            samples[traced].append(report)
        return report

    # One round is one untraced sample, plus one traced sample with --trace 1.
    rounds: list[float] = []
    order = (False, True) if trace else (False,)
    while True:
        began = time.monotonic()
        if not all(sample(traced) is not None for traced in order):
            break
        rounds.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break

    result = {
        "workload": name,
        "seed": seed,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "notes": notes[:20],
        "samples": len(samples[False]),
        "setup_samples": len(setup),
        "series": {"setup_s": setup},
    }
    if samples[False]:
        result["series"]["wall_s"] = [r["wall_s"] for r in samples[False]]
        result["series"]["peak_rss_mb"] = [r["peak_rss_mb"] for r in samples[False]]
    if trace and samples[True]:
        per_child = []
        for r in samples[True]:
            m = tracer.aggregate(r["trace"])
            m["spin_algebra.cj_over_floor_max"] = cj_over_floor_max(r["trace"]["counters"])
            m["trace.wall_s"] = r["wall_s"]
            m["trace.span_coverage"] = (m["trace.top_level_s"] + m["cli.main.self_s"]) / r["wall_s"]
            per_child.append(m)
        layer = tracer.median_metrics(per_child)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(result["series"]["wall_s"])
        result["per_layer"] = layer
        result["patched"] = samples[True][0]["trace"]["patched"]
    return result


# ---------------------------------------------------------------------------
# reporting


def print_summary(result: dict, end_to_end: dict, per_layer: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['samples']} samples, {result['setup_samples']} set-ups")
    for metric, unit in end_to_end.items():
        values = result["series"].get(metric)
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"  {metric:<12} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else math.nan
    print(f"  {'fail_ratio':<12} {ratio:.6g} ratio  ({result['failed']} of {result['attempted']} "
          "rows and exit codes bad)")
    for note in result["notes"]:
        print(f"  FAIL {note}")
    if "per_layer" in result:
        for metric, unit in per_layer.items():
            tag = "  (computed)" if metric in COMPUTED else ""
            print(f"  {metric:<42} {result['per_layer'][metric]:.6g} {unit}{tag}")
        print(f"  patched at: {json.dumps(result['patched'])}")


def metrics_of(result: dict, units: dict) -> dict:
    if "per_layer" in result:
        return {m: {"value": result["per_layer"][m], "unit": u} for m, u in units.items()}
    return {m: {"value": statistics.median(result["series"][m]), "unit": u} for m, u in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spinmoments" / "cli.py").is_file():
        print(f"bench: no spinmoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units = per_layer if args.trace else end_to_end

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONHASHSEED="0")
    print("meta " + json.dumps(metadata(args.seed, threads, nproc), sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        except ChildFailed as exc:
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
            return 1
        print_summary(result, end_to_end, per_layer)
        results.append(result)

    if any(not r["samples"] or (args.trace and "per_layer" not in r) for r in results):
        print("bench: a workload produced no sample", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], units)
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in metrics_of(r, units).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
