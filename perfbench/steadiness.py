"""Steadiness check of the benchmark: repeated runs over several seeds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 [--workloads pre-sample,...]

For every workload it runs ``perfbench/run.py --trace 0`` once per seed and
set, one run at a time, then prints per end-to-end metric the median of each
set and the spread (interquartile range over the median, from
``statistics.quantiles(values, n=4)``) against the bound in
``BENCHMARK.json``.  Simulated metrics (``sim_*``) must repeat exactly for
the same seed across sets.  Exits non-zero when a run fails, a spread other
than ``setup_s``'s exceeds its bound, a later set's median is worse than the
first by more than the bound, or a simulated metric does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    ok = True
    for name in args.workloads.split(","):
        # runs[set][seed] -> metrics
        runs = []
        for _ in range(args.sets):
            results = {}
            for seed in seeds:
                done = subprocess.run(
                    [sys.executable, *spec["command"][1:], "--workload", name, "--seed",
                     str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True,
                )
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if done.returncode or not result["correct"]:
                    print(f"{name} seed {seed}: FAILED (exit {done.returncode})")
                    ok = False
                results[seed] = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append(results)
        print(f"{name}: {len(seeds)} seeds x {args.sets} sets")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians, spreads = [], []
            for results in runs:
                values = [results[seed][key] for seed in seeds]
                medians.append(statistics.median(values))
                spreads.append(_spread(values))
            worse = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
            bad = (key != "setup_s" and max(spreads) > bound) or any(w > bound for w in worse)
            if key.startswith("sim_"):
                bad |= any(
                    results[seed][key] != runs[0][seed][key] for results in runs for seed in seeds
                )
            ok &= not bad
            print(
                f"  {key:<16} bound {bound:<5} medians "
                + " ".join(f"{m:.6g}" for m in medians)
                + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                + ("  FAIL" if bad else "")
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
