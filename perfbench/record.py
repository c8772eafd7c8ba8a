"""Record a benchmark entry: two sets of ten seeds per workload, then one traced run.

    python3 perfbench/record.py --out perfbench/results/<name>.json

A set runs seeds 1..10 untraced at BENCHMARK.json's run_seconds.  Within a
set the workloads alternate (seed 1 of every workload, then seed 2, ...), so
a change of host speed reaches every workload alike.  The second set repeats
the first after it has ended, as a later check of the same code would.  For
each set and end-to-end metric the entry keeps the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
which is the spread the bounds in BENCHMARK.json are checked against, and
for each metric the second set's median over the first's.  Metrics that
BENCHMARK.json does not bound are summarised the same way with bound null.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("result "))[len("result "):])
    return {"record": record, "last": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["record"]["metrics"]:
        values = [r["record"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bounds.get(name)}
    return summary


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    sets = []
    for set_no in range(SETS):
        runs = {name: [] for name in names}
        for seed in range(1, RUNS + 1):
            for name in names:
                out = bench(name, seed, seconds, 0)
                runs[name].append(out)
                print(f"set {set_no + 1}", name, seed, out["last"]["correct"],
                      {k: round(v["value"], 4) for k, v in out["record"]["metrics"].items()},
                      flush=True)
        sets.append(runs)

    entry = {"seconds": seconds, "runs_per_set": RUNS, "workloads": {}}
    for name in names:
        summaries = [summarise(runs[name], bounds) for runs in sets]
        for set_no, summary in enumerate(summaries):
            for metric, s in summary.items():
                print(f"set {set_no + 1} {name:14s} {metric:12s} median {s['median']:.5g} "
                      f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        traced = bench(name, 1, seconds, 1)
        all_runs = [r for runs in sets for r in runs[name]]
        entry["workloads"][name] = {
            "correct": all(r["last"]["correct"] for r in all_runs) and traced["last"]["correct"],
            "attempted": sum(r["last"]["attempted"] for r in all_runs),
            "failed": sum(r["last"]["failed"] for r in all_runs),
            "second_over_first": {m: summaries[1][m]["median"] / summaries[0][m]["median"]
                                  for m in summaries[0]},
            "sets": [
                {"end_to_end": summary,
                 "runs": [{"seed": r["record"]["seed"],
                           "metrics": {k: v["value"] for k, v in r["record"]["metrics"].items()},
                           "pass_s_each": r["record"]["pass_s_each"],
                           "op_tail_percentile": r["record"]["op_tail_percentile"],
                           "loadavg_start": r["record"]["env"]["loadavg_start"]}
                          for r in runs[name]]}
                for summary, runs in zip(summaries, sets)
            ],
            "per_layer": {k: v["value"] for k, v in traced["last"]["metrics"].items()},
        }
        entry.setdefault("env", all_runs[0]["record"]["env"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
