"""Seeded input generator for the benchmark workloads.

``generate(root, seed, name)`` writes the workload's datasets under
``root/<name>/d<j>/``: ``curves.csv``, ``covariates.csv``, ``config.json``,
``predict.csv`` (the covariate table handed to ``predict``) and the truth
used for error metrics.  Dataset j of seed s is simulated with seed
100 s + j.  The same seed always writes the same bytes.  The program under
test only ever reads these files.  To write every workload's files for one
seed without running anything:

    PYTHONPATH=src python3 perfbench/gen.py --seed 1 --out /tmp/inputs

Workloads (``BENCHMARK.json`` gives the reason for each):

* ``dense-shape``: shape geometry, n = 36 curves of about 40 points with
  trapezoid weights, 100 iterations; ``truth.json`` for ``eval``.
* ``sparse-form``: form geometry, n = 72 landmark triangles (k = 3) with
  uniform weights, 20 iterations; ``truth.json`` for ``eval``.
* ``coef-cv``: n = 36 simulated form curves of about 40 points (noise to
  signal 2), each projected by penalized least squares onto a 27-knot cyclic
  equidistant response basis, fitted with ``--weights gram``, step length 1
  and 50 iterations; ``coef_truth.json`` holds the same projection applied
  to the true effects and pole.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from shapeboost import io as sbio
from shapeboost.basis import SplineConfig, build_response_basis
from shapeboost.cli import main as cli_main
from shapeboost.simulate import SimConfig, gen_dataset, gen_truth

# Per workload: simulation settings, step length and boosting iterations, the predict table,
# the commands in pipeline order, and what the checks expect (prediction_rows:
# rows predict writes; rmse_bound: a loose sanity ceiling on eval's rMSE).
# Each seed draws DATASETS independent datasets of the workload; the pipeline
# cycles through them, so one run's medians average over several draws.
WORKLOADS = {
    "dense-shape": {
        "sim": {"n": 36, "kbar": 40, "geometry": "shape", "nsr": 0.65, "weights": "trapezoid"},
        "eta": 0.25,
        "iterations": 100,
        "predict_rows": 100,
        "predict_points": 200,
        "prediction_rows": 100 * 200,
        "rmse_bound": 0.3,
        "ops": ["fit", "predict", "factorize", "eval"],
    },
    "sparse-form": {
        "sim": {"n": 72, "kbar": 3, "geometry": "form", "nsr": 1.05, "weights": "uniform"},
        "eta": 0.25,
        "iterations": 20,  # few iterations, so pole estimation and tangent setup dominate the fit
        "predict_rows": None,  # predict --grid-from the training curves
        "prediction_rows": 72 * 3,
        "rmse_bound": 1.0,
        "ops": ["fit", "predict", "factorize", "eval"],
    },
    "coef-cv": {
        # noisy data and full steps, so the fold-averaged CV risk has its minimum
        # inside the 50 iterations and cv_m_stop is a real check
        "sim": {"n": 36, "kbar": 40, "geometry": "form", "nsr": 2.0, "weights": "trapezoid"},
        "eta": 1.0,
        "iterations": 50,
        "predict_rows": 500,
        "prediction_rows": 500 * 28,  # coefficient mode predicts on the basis dimension
        "folds": 5,
        "threads": 1,  # the 2-process fan-out is timed by the traced probes
        "ops": ["cv", "fit", "predict", "factorize"],
    },
}
DATASETS = 16

COEF_BASIS = SplineConfig(degree=3, n_knots=27, cyclic=True, knot_rule="equidistant")
COEF_LAMBDA = 1e-4  # second-difference penalty of the coefficient projection

_COV_BASIS = {"degree": 3, "n_knots": 4}


def _effects_doc() -> list[dict]:
    """The five simulation learners (``simulate.default_effects``) in config form."""
    return [
        {"name": "group", "kind": "categorical", "covariates": ["group"], "df": 4},
        {"name": "tilt", "kind": "smooth", "covariates": ["z1"], "basis": _COV_BASIS, "df": 4, "penalty": "second_diff"},
        {"name": "const0", "kind": "constant", "df": 4, "centering": "none"},
        {"name": "lin_z1", "kind": "linear", "covariates": ["z1"], "df": 4},
        {"name": "smooth_z2", "kind": "smooth", "covariates": ["z2"], "basis": _COV_BASIS, "df": 4, "penalty": "second_diff"},
    ]


def _config_doc(spec: dict, seed: int, response_basis: SplineConfig, weights: str) -> dict:
    return {
        "geometry": spec["sim"]["geometry"],
        "response_basis": response_basis.to_dict(),
        "response_penalty": "ridge",
        "weights": weights,
        "effects": _effects_doc(),
        "boosting": {"eta": spec["eta"], "iterations": spec["iterations"], "folds": spec.get("folds", 10), "seed": seed},
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _write_table(path: Path, ids: list[str], columns: dict[str, list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = sorted(columns)
        writer.writerow(["curve_id"] + names)
        for i, cid in enumerate(ids):
            writer.writerow([cid] + [str(columns[c][i]) for c in names])


def _predict_table(path: Path, rng: np.random.Generator, rows: int, z2_range: tuple[float, float]) -> None:
    """Covariate rows inside the training ranges, so no smooth term extrapolates."""
    _write_table(
        path,
        [f"p{i:05d}" for i in range(rows)],
        {
            "group": [str(g) for g in rng.integers(0, 2, size=rows)],
            "z1": [repr(float(v)) for v in rng.uniform(-60.0, 60.0, size=rows)],
            "z2": [repr(float(v)) for v in rng.uniform(*z2_range, size=rows)],
        },
    )


def _simulated(out: Path, spec: dict, seed: int) -> None:
    """Curves, covariates and truth through the program's own ``simulate`` command."""
    sim = spec["sim"]
    argv = [
        "simulate", str(out / "curves.csv"), str(out / "covariates.csv"), str(out / "truth.json"),
        "--n", str(sim["n"]), "--kbar", str(sim["kbar"]), "--geometry", sim["geometry"],
        "--nsr", str(sim["nsr"]), "--weights", sim["weights"], "--seed", str(seed),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"simulate exited {rc}")
    truth = json.loads((out / "truth.json").read_text())
    _write_json(out / "config.json", _config_doc(spec, seed, SplineConfig.from_dict(truth["response_basis"]["config"]), sim["weights"]))


def _projector(basis, grid: np.ndarray, weights: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """Penalized LS map from evaluations on ``grid`` to response-basis coefficients."""
    B = basis.design(grid)
    BtW = B.T * weights
    return np.linalg.solve(BtW @ B + COEF_LAMBDA * penalty, BtW)


def _coefficient_level(out: Path, spec: dict, seed: int) -> None:
    """Simulated form curves projected onto the coefficient basis (``--weights gram``)."""
    sim = spec["sim"]
    cfg = SimConfig(n=sim["n"], k_bar=sim["kbar"], kind=sim["geometry"], target_nsr=sim["nsr"], seed=seed)
    sample, covariates, dtruth = gen_dataset(gen_truth(), cfg)
    basis = build_response_basis(COEF_BASIS, np.empty(0))
    penalty = basis.penalty("second_diff")
    grid = np.arange(basis.dim, dtype=float) / (basis.dim - 1)
    rows = []
    truth = {"effects": {name: [] for name in dtruth.effect_evals}, "total": [], "pole": []}

    def pack(v: np.ndarray) -> list:
        return [v.real.tolist(), v.imag.tolist()]

    for i, curve in enumerate(sample):
        P = _projector(basis, curve.grid, curve.weights, penalty)
        rows.append((curve.id, grid, P @ curve.values))
        for name, evals in dtruth.effect_evals.items():
            truth["effects"][name].append(pack(P @ evals[i]))
        truth["total"].append(pack(P @ dtruth.total_evals[i]))
        truth["pole"].append(pack(P @ dtruth.pole_evals[i]))
    sbio.write_curves(out / "curves.csv", rows)
    _write_table(out / "covariates.csv", [c.id for c in sample], {k: list(v) for k, v in covariates.items()})
    _write_json(out / "coef_truth.json", truth)
    _write_json(out / "config.json", _config_doc(spec, seed, COEF_BASIS, "gram"))


def dataset_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def generate(root: Path, seed: int, name: str) -> list[Path]:
    """Write the workload's DATASETS datasets for ``seed``; returns their directories."""
    spec = WORKLOADS[name]
    dirs = []
    for index in range(DATASETS):
        out = Path(root) / name / f"d{index}"
        out.mkdir(parents=True, exist_ok=True)
        sub = dataset_seed(seed, index)
        if name == "coef-cv":
            _coefficient_level(out, spec, sub)
        else:
            _simulated(out, spec, sub)
        if spec["predict_rows"]:
            with open(out / "covariates.csv", newline="") as fh:
                table = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
            col = table[0].index("z2")
            z2 = [float(r[col]) for r in table[1:]]
            rng = np.random.default_rng([sub, 7])
            _predict_table(out / "predict.csv", rng, spec["predict_rows"], (min(z2), max(z2)))
        dirs.append(out)
    return dirs


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="write every workload's inputs for one seed")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS:
        generate(args.out, args.seed, workload)
