"""Benchmark of the shapeboost CLI pipeline on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-shape --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's inputs from the seed (``gen.py``),
times fresh processes that import ``shapeboost`` and parse them
(``setup_s``), then runs the pipeline's CLI commands in a child process
(``pipeline.py``) for about ``--seconds`` seconds and checks their outputs.
With ``--trace 1`` it reports per-layer metrics from a traced run instead
(``probes.py``).  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0  # whole run, child processes included
REL_TOL = 1e-6  # tolerance against recorded results; cv_m_stop must match exactly

# results checked against reference.json; printed as medians over the run's datasets
REFERENCE_KEYS = ("final_risk", "rmse_tilt", "rmse_group", "cv_risk_min", "cv_m_stop")
# printed where the workload produces them; not in the result line
EXTRA_UNITS = {"fit_s": "s", "predict_s": "s", "inspect_s": "s", "cv_s": "s", "final_risk": "dist2", "cv_risk_min": "dist2",
               "cv_m_stop": "count", "rmse_tilt": "1", "rmse_group": "1", "error_rate": "1", "pipeline_s": "s",
               "pole_share": "1", "setup_share": "1", "iterations_share": "1"}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _blas_threads() -> int | None:
    """OpenBLAS's runtime thread count, read from the library numpy loaded."""
    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": _loadavg(),
    }


class Runner:
    """Starts the benchmark's child processes, one at a time, and waits for each."""

    def __init__(self, src: Path, workload: str, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
        self.workload = workload
        self.deadline = deadline

    def worker(self, mode: str, path: Path, seconds: float = 0.0, env: dict | None = None) -> tuple[float, dict | None]:
        """Run ``pipeline.py`` in ``mode`` on ``path``; returns its wall seconds and result document."""
        out = path / f"worker-{mode}.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "pipeline.py"), str(path), self.workload, mode, str(seconds), str(out)]
        t0 = time.perf_counter()
        subprocess.run(argv, env={**self.env, **(env or {})}, check=True,
                       timeout=max(self.deadline - time.monotonic(), 1.0))
        elapsed = time.perf_counter() - t0
        return elapsed, (json.loads(out.read_text()) if out.exists() else None)


def _recorded(workload: str, seed: int) -> dict:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    return doc.get(workload, {}).get(str(seed), {})


def check_results(workload: str, seed: int, spec: dict, results: list[dict]) -> dict[str, bool]:
    """Checks on the numbers the pipeline's output files carry, over every repetition."""
    recorded = _recorded(workload, seed)
    checks = {
        "risk_decreased": all(r["risk_decreased"] for r in results),
        "iterations": all(r["iterations"] == spec["iterations"] for r in results),
        "prediction_rows": all(r["prediction_rows"] == spec["prediction_rows"] for r in results),
        "predictions_finite": all(r["predictions_finite"] for r in results),
        "factorized_all_effects": all(r["factorized_effects"] == 5 for r in results),
        "variance_shares_nonnegative": all(r["variance_shares_nonnegative"] for r in results),
    }
    if "eval" in spec["ops"]:
        checks["rmse_below_bound"] = all(max(r["rmse_tilt"], r["rmse_group"]) < spec["rmse_bound"] for r in results)
    if "cv" in spec["ops"]:
        checks["cv_m_stop_in_range"] = all(0 <= r["cv_m_stop"] <= spec["iterations"] for r in results)
    compared = [(r, recorded[str(r["dataset"])]) for r in results if str(r["dataset"]) in recorded]
    for key in REFERENCE_KEYS:
        pairs = [(r[key], ref[key]) for r, ref in compared if key in ref]
        if pairs:
            exact = key == "cv_m_stop"
            checks[f"reference_{key}"] = all(
                a == b if exact else math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) for a, b in pairs
            )
    checks["reference_datasets"] = len({r["dataset"] for r, _ in compared})
    return checks


def record_reference(workload: str, seed: int, results: list[dict]) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    per_seed = doc.setdefault(workload, {}).setdefault(str(seed), {})
    for r in results:
        per_seed[str(r["dataset"])] = {k: r[k] for k in REFERENCE_KEYS if k in r}
    doc[workload] = dict(sorted(doc[workload].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def untraced(runner: Runner, dirs: list[Path], spec: dict, seconds: float) -> dict:
    setup = [runner.worker("setup", dirs[i % len(dirs)])[0] for i in range(SETUP_REPEATS)]
    _, doc = runner.worker("loop", dirs[0].parent, seconds)
    reps, results = doc["reps"], doc["results"]
    out = {"attempted": doc["attempted"], "failed": doc["failed"], "results": results, "reps": reps,
           "counts": {"setup": len(setup), "pipelines": len(reps), "datasets": len({r["dataset"] for r in results})}}
    if not reps:
        return {**out, "metrics": {}, "extra": {}}

    def med(values) -> float:
        return statistics.median(values)

    out["metrics"] = {
        "setup_s": med(setup),
        "pipeline_s": med(r["pipeline"] for r in reps),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    extra = {
        "fit_s": med(r["fit"] for r in reps),
        "predict_s": med(r["predict"] for r in reps),
        "inspect_s": med(r["factorize"] + r.get("eval", 0.0) for r in reps),
        **{k: med(r[k] for r in results) for k in REFERENCE_KEYS if k in results[0]},
    }
    if "cv" in spec["ops"]:
        extra["cv_s"] = med(r["cv"] for r in reps)
    out["extra"] = extra
    return out


def traced(runner: Runner, dirs: list[Path]) -> dict:
    _, doc = runner.worker("trace", dirs[0])
    _, blas1 = runner.worker("fit-only", dirs[0], env={"OPENBLAS_NUM_THREADS": "1"})
    metrics = dict(doc["metrics"])
    extra = {}
    if metrics:
        metrics["boost.fit_blas1_s"] = blas1["fit_s"]
        # where the untraced pipeline's time goes; the fit is the warm second one
        times = dict(doc["untraced"], fit=doc["untraced"]["warm_fit"])
        pipeline = sum(t for op, t in times.items() if op != "warm_fit")
        extra = {
            "fit_s": times["fit"],
            "pipeline_s": pipeline,
            "pole_share": metrics["boost.pole_s"] / pipeline,
            "setup_share": metrics["boost.setup_s"] / pipeline,
            "iterations_share": metrics["boost.iter_ms"] * doc["facts"]["iterations"] / 1e3 / pipeline,
        }
    return {
        "attempted": doc["attempted"] + blas1["attempted"],
        "failed": doc["failed"] + blas1["failed"],
        "results": [dict(doc["results"], dataset=0)] if doc.get("results") else [],
        "metrics": metrics,
        "extra": extra,
        "checks": doc["checks"],
        "facts": doc.get("facts", {}),
        "untraced": doc.get("untraced", {}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the results of every dataset this run covered in reference.json")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = Path.cwd() / "src"
    if not (src / "shapeboost" / "__init__.py").is_file():
        print(f"error: no shapeboost sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from gen import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    env = environment()
    shutil.rmtree(HERE / ".work" / args.workload, ignore_errors=True)
    dirs = generate(HERE / ".work", args.seed, args.workload)
    runner = Runner(src, args.workload, deadline)
    try:
        if args.trace:
            run = traced(runner, dirs)
        else:
            run = untraced(runner, dirs, spec, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        run = {"attempted": 1, "failed": 1, "results": [], "metrics": {}, "extra": {}}
    env["loadavg_end"] = _loadavg()

    checks = dict(run.get("checks", {}))
    if run["results"]:
        checks.update(check_results(args.workload, args.seed, spec, run["results"]))
        if args.record:
            record_reference(args.workload, args.seed, run["results"])
    # datasets without recorded results are checked by the invariants alone
    compared = checks.pop("reference_datasets", 0)
    units = declared_units(args.trace)
    if run["failed"] == 0:
        checks["metrics_complete"] = set(run["metrics"]) == set(units)
    correct = run["failed"] == 0 and bool(run["results"]) and all(checks.values())
    extra = dict(run["extra"], error_rate=run["failed"] / max(run["attempted"], 1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} correct {correct}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(run.get("counts", {})) + f"; datasets compared with reference.json: {compared}")
    for name, value in list(run["metrics"].items()) + list(extra.items()):
        unit = units.get(name) or EXTRA_UNITS.get(name, "")
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for name, ok in checks.items():
        print(f"  check {name:32s} {'ok' if ok else 'FAILED'}")
    record = {"env": env, "args": vars(args), "checks": checks, "extra": extra,
              **{k: v for k, v in run.items() if k != "extra"}}
    (dirs[0].parent / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in run["metrics"].items()
               if name in units and math.isfinite(value)}
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
