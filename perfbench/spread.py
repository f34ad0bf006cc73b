"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload dense-shape --seeds 1-10 --trace-seed 1 --out perfbench/baseline.json
    python3 perfbench/spread.py --workload dense-shape --seeds 1-10 --out perfbench/baseline-set2.json

The second call repeats the first set of runs into a file of its own, so the
two sets can be compared.  Runs ``run.py`` once per seed (sequentially, from
the current directory),
then stores under the workload's key in ``--out``: every run's result line
and, per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  With
``--trace-seed`` it also stores one traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int, record: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--record"] if record else [])
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "min": min(values),
            "max": max(values),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--record", action="store_true", help="pass --record to every untraced run")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    results = [dict(run(args.workload, s, args.seconds, 0, args.record), seed=s) for s in seeds]
    entry = {"seconds": args.seconds, "seeds": seeds, "all_correct": all(r["correct"] for r in results),
             "end_to_end": summarize(results), "runs": results}
    if args.trace_seed is not None:
        traced = run(args.workload, args.trace_seed, args.seconds, 1)
        entry["per_layer"] = {"seed": args.trace_seed, "correct": traced["correct"],
                              **{k: v["value"] for k, v in traced["metrics"].items()}}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in entry["end_to_end"].items():
        print(f"{args.workload:12s} {name:12s} median {s['median']:.4g} {s['unit']}  spread {s['spread']:.3f}")
    return 0 if entry["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
