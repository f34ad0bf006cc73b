"""Benchmark worker: runs one workload's CLI pipeline in this process.

Invoked by ``run.py`` as a child process, so that its peak memory belongs to
the workload alone:

    python3 perfbench/pipeline.py <dir> <workload> <mode> <seconds> <out.json>

``<dir>`` is the workload's directory of datasets in ``loop`` mode and one
dataset's directory otherwise.  Modes:

* ``loop``: repeat the pipeline (closed loop, one client: each command starts
  when the previous one returns), each repetition on the next dataset, until
  the next repetition would end after ``seconds`` (at least once), recording
  the wall time of every command;
* ``trace``: run the pipeline once untraced and once under span wrappers,
  then the per-layer probes (see ``probes.py``);
* ``fit-only``: time one ``fit`` command (``run.py`` starts this mode with
  ``OPENBLAS_NUM_THREADS=1`` as the single-threaded reference);
* ``setup``: import shapeboost and parse the workload's inputs, nothing else
  (``run.py`` times the whole process).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from shapeboost import io as sbio
from shapeboost.basis import build_response_basis
from shapeboost.cli import main as cli_main

from gen import WORKLOADS


def commands(workdir: Path, workload: str) -> list[tuple[str, list[str]]]:
    """The workload's CLI commands in pipeline order."""
    spec = WORKLOADS[workload]

    def f(name: str) -> str:
        return str(workdir / name)

    inputs = [f("curves.csv"), f("covariates.csv"), f("config.json")]
    cmds = {
        "fit": ["fit", *inputs, f("model.json")],
        "factorize": ["factorize", f("model.json"), f("curves.csv"), f("covariates.csv"), f("report.json")],
        "eval": ["eval", f("model.json"), f("curves.csv"), f("covariates.csv"), f("truth.json"), f("rmse.csv")],
    }
    if "cv" in spec["ops"]:
        cmds["cv"] = ["cv", *inputs, f("cv.csv"), "--folds", str(spec["folds"]), "--threads", str(spec["threads"])]
    if spec["predict_rows"]:
        cmds["predict"] = ["predict", f("model.json"), f("predict.csv"), f("predictions.csv"),
                           "--points", str(spec.get("predict_points", 100))]
    else:
        cmds["predict"] = ["predict", f("model.json"), f("covariates.csv"), f("predictions.csv"),
                           "--grid-from", f("curves.csv")]
    return [(op, cmds[op]) for op in spec["ops"]]


def run_command(argv: list[str]) -> tuple[bool, float]:
    """Run one CLI command in-process; returns (succeeded, wall seconds)."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        traceback.print_exc()
        rc = -1
    elapsed = time.perf_counter() - t0
    if rc != 0:
        print(f"command {argv[0]} exited {rc}", file=sys.stderr)
    return rc == 0, elapsed


def read_results(workdir: Path, workload: str) -> dict:
    """Numbers the pipeline's output files carry, for the correctness checks."""
    ops = WORKLOADS[workload]["ops"]
    model, _ = sbio.load_model(workdir / "model.json")
    out = {
        "final_risk": float(model.risk_trace[-1]),
        "risk_decreased": bool(model.risk_trace[-1] < model.risk_trace[0]),
        "iterations": int(model.risk_trace.size - 1),
    }
    with open(workdir / "predictions.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    out["prediction_rows"] = len(rows)
    out["predictions_finite"] = all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in rows)
    report = json.loads((workdir / "report.json").read_text())
    shares = [s for e in report["effects"].values() for s in e["variance_shares"]]
    out["factorized_effects"] = len(report["effects"])
    out["variance_shares_nonnegative"] = all(s >= -1e-12 for s in shares)
    if "eval" in ops:
        with open(workdir / "rmse.csv", newline="") as fh:
            rmse = {r[0]: float(r[1]) for r in csv.reader(fh) if r and not r[0].startswith(("#", "effect"))}
        out["rmse_tilt"] = rmse["tilt"]
        out["rmse_group"] = rmse["group"]
    if "cv" in ops:
        out.update(read_cv(workdir / "cv.csv"))
    return out


def read_cv(path: Path) -> dict:
    """m_stop, the minimum fold-averaged risk and the exact fold risks of a cv CSV."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    m_stop = int(lines[0][0].split("m_stop=")[1])
    body = lines[2:]
    mean = [float(r[1]) for r in body]
    folds = [[float(r[c]) for r in body] for c in range(2, len(lines[1]))]
    return {"cv_m_stop": m_stop, "cv_risk_min": min(mean), "cv_fold_risks": folds}


def loop(root: Path, workload: str, seconds: float) -> dict:
    """Closed-loop repetitions of the pipeline, cycling through the datasets under ``root``.

    Stops when the next repetition would end after ``seconds``.
    """
    datasets = sorted(root.glob("d*"), key=lambda d: int(d.name[1:]))
    reps = []
    results = []
    attempted = failed = 0
    start = time.perf_counter()
    while not failed:
        index = len(reps) % len(datasets)
        workdir = datasets[index]
        t0 = time.perf_counter()
        times = {}
        for op, argv in commands(workdir, workload):
            attempted += 1
            ok, times[op] = run_command(argv)
            if not ok:
                failed += 1
                break
        if failed:
            break
        times["pipeline"] = time.perf_counter() - t0
        reps.append(times)
        results.append(dict(read_results(workdir, workload), dataset=index))
        elapsed = time.perf_counter() - start
        if elapsed + times["pipeline"] > seconds:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "reps": reps,
        "results": results,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }


def load_inputs(workdir: Path):
    """What every command that takes curves parses: config, curves, covariates."""
    _, kind, weight_rule, config = sbio.load_config(workdir / "config.json")
    basis = build_response_basis(config.response_basis, np.empty(0)) if weight_rule == "gram" else None
    sample, _ = sbio.read_curves(workdir / "curves.csv", weight_rule=weight_rule, basis=basis)
    covariates = sbio.read_covariates(workdir / "covariates.csv", [c.id for c in sample])
    return kind, config, sample, covariates


def main(argv: list[str]) -> int:
    workdir, workload, mode, seconds, out = Path(argv[0]), argv[1], argv[2], float(argv[3]), Path(argv[4])
    if mode == "setup":
        load_inputs(workdir)
        return 0
    if mode == "fit-only":
        ok, elapsed = run_command(dict(commands(workdir, workload))["fit"])
        doc = {"attempted": 1, "failed": int(not ok), "fit_s": elapsed}
    elif mode == "trace":
        from probes import traced_run

        doc = traced_run(workdir, workload, run_id=f"{workload}:{time.time_ns()}")
        (workdir / "spans.json").write_text(json.dumps(doc.pop("spans"), indent=0) + "\n")
    else:
        doc = loop(workdir, workload, seconds)
    out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
