"""lambshift benchmark: time to table, per-request latency, per-layer counts.

    python3 perfbench/run.py --workload table1_shift --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  Each pass runs in a fresh child interpreter,
one child at a time, with BLAS threads pinned to 1.  Every output is checked
against perfbench/goldens.json.

--trace 0 prints setup_s, pass_s, op_p50_s, op_tail_s, peak_rss_mb and
failed_frac; its times are scaled to the nominal host of reference.py, and
the unscaled setup_wall_s and pass_wall_s are printed too.  --trace 1 runs
an untraced and a traced pass in the order of seed, then both again in the
order of seed+1, and prints the per-layer metrics of perfbench/tracing.py;
every count must repeat exactly between the two traced passes.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"} whose metrics are the ones BENCHMARK.json lists for the mode;
the rest are printed above it and kept in the `result` record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
CONFIG = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 6  # set-up-only children per run, beside one per pass
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10  # samples a reported tail percentile must have above it


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("LAMBSHIFT_CONSTANTS", None)  # set-up loads the bundled constants
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(requests: list[dict], trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; waits for it to end."""
    job = json.dumps({"requests": requests, "trace": trace, "src": str(SRC)})
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=job,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n > TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return xs[-1], 100.0, n


def grade(reports: list[dict], goldens: dict, by_id: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): raised, not converged, or off its golden."""
    attempted, reasons = 0, []
    for report in reports:
        for op in report["ops"]:
            attempted += 1
            if op["error"] is not None:
                reasons.append(f"{op['id']} raised: {op['error'].strip().splitlines()[-1]}")
            elif not op["converged"]:
                reasons.append(f"{op['id']} returned converged=False")
            else:
                bad = workloads.golden_mismatch(by_id[op["id"]], op["output"], goldens)
                if bad:
                    reasons.append(bad)
    return attempted, len(reasons), reasons


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lambshift").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def scale(chunks: list[float]) -> float:
    """Factor from this child's wall time to the nominal host's time."""
    return reference.NOMINAL_S / statistics.mean(chunks)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    reqs = workloads.requests(workload)
    rng = random.Random(seed)
    n = workloads.passes_for(workload, seconds)
    setup_children, reports = [], []
    for i in range(n):
        # Set-up-only children are spread over the run, as the passes are, so
        # that setup_s sees the same spells of host speed as pass_s.
        for _ in range(SETUP_SAMPLES * (i + 1) // n - SETUP_SAMPLES * i // n):
            setup_children.append(run_child([], False, deadline))
        reports.append(run_child(workloads.permuted(reqs, rng), False, deadline))
    setup_wall = [r["setup_s"] for r in setup_children + reports]
    setups = [r["setup_s"] * scale(r["chunk_s"][:1]) for r in setup_children + reports]
    pass_wall = [r["pass_s"] for r in reports]
    passes = [r["pass_s"] * scale(r["chunk_s"]) for r in reports]
    latencies = [op["seconds"] * scale(r["chunk_s"]) for r in reports for op in r["ops"]]
    tail_s, tail_pct, samples = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reports) / 1024.0, "MB"),
        "setup_wall_s": (statistics.median(setup_wall), "s"),
        "pass_wall_s": (statistics.median(pass_wall), "s"),
    }
    detail = {
        "passes": len(reports),
        "pass_s_each": passes,
        "pass_wall_s_each": pass_wall,
        "chunk_s_each": [statistics.mean(r["chunk_s"]) for r in reports],
        "op_samples": samples,
        "op_tail_percentile": tail_pct,
        "setup_samples": len(setups),
    }
    return reports, metrics, detail, []


def traced(workload: str, seed: int, deadline: float):
    reqs = workloads.requests(workload)
    plains, runs = [], []
    # Each traced pass follows an untraced pass of the same order, so that
    # the overhead is taken from pairs that saw the same spell of host speed.
    for order in (workloads.permuted(reqs, random.Random(s)) for s in (seed, seed + 1)):
        plains.append(run_child(order, False, deadline))
        runs.append(run_child(order, True, deadline))
    first, second = (r["layers"] for r in runs)
    problems = [f for r in runs for f in r["crosscheck_failures"]]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = ((value + second[name]) / 2.0, "s")
        else:
            if value != second[name]:
                problems.append(f"{name}: {value} in order of seed {seed}, {second[name]} "
                                f"in order of seed {seed + 1}")
            metrics[name] = (value, "ratio" if name.endswith("ratio") else "count")
    plain_s = [p["pass_s"] * scale(p["chunk_s"]) for p in plains]
    traced_s = [t["pass_s"] * scale(t["chunk_s"]) for t in runs]
    metrics["trace.overhead_s"] = (
        statistics.mean(t - p for p, t in zip(plain_s, traced_s)), "s")
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    return [*plains, *runs], metrics, detail, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lambshift" / "__init__.py").is_file():
        print(f"error: no lambshift sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not GOLDENS.is_file() or not CONFIG.is_file():
        print(f"error: {GOLDENS} or {CONFIG} is missing", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())["workloads"][args.workload]
    listed = [m["name"] for m in json.loads(CONFIG.read_text())[
        "per_layer" if args.trace else "end_to_end"]]

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    load_start = os.getloadavg()
    try:
        run_child([], False, deadline)  # warm-up: byte-code caches, and a failed import stops here
        if args.trace:
            reports, metrics, detail, problems = traced(args.workload, args.seed, deadline)
        else:
            reports, metrics, detail, problems = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    by_id = {req["id"]: req for req in workloads.requests(args.workload)}
    attempted, failed, reasons = grade(reports, goldens, by_id)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **detail,
        "failed_frac": failed / attempted,
        "failures": reasons[:20],
        "crosscheck_failures": problems,
        "env": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "python": reports[0]["python"],
            "numpy": reports[0]["numpy"],
            "commit": commit(),
            "src_digest": source_digest(),
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} 1  ({failed} of {attempted} requests)")
    for line in reasons[:20] + problems:
        print(f"FAIL {line}")
    print("result " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: record["metrics"][name] for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
