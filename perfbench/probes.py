"""Traced run: spans around calls into the shapeboost modules, and layer probes.

Spans are recorded by the benchmark from outside the program.  During the
traced pipeline, the public functions the CLI calls are replaced by wrappers
that open a span around the original; afterwards the originals are restored
and the probes below call public functions directly, each inside a span.
Span names are ``<layer>.<function>``, where the layer is the module under
``src/shapeboost/`` (``cli.<command>`` for the root span of a command).
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import shapeboost.cli as sbcli
import shapeboost.factorize as sbfac
from shapeboost import io as sbio
from shapeboost.basis import PenaltyBlock, constraint_matrix, curve_design, nullspace_transform
from shapeboost.boost import (
    boost_fit,
    cv_early_stop,
    empirical_risk,
    predict_mean,
    rmse_effect,
    transported_residuals,
)
from shapeboost.effects import assemble_psi_matrix, covariate_design, curve_gram, df_to_lambda
from shapeboost.geometry import empirical_norm, log_map, parallel_transport

from gen import WORKLOADS
from pipeline import commands, load_inputs, read_cv, read_results, run_command

# cv probe settings on workloads whose pipeline runs no cv command
CV_PROBE_ITERATIONS = 25
CV_PROBE_FOLDS = 5
# boost_fit at 0 and at M iterations, alternately; setup_s and iter_ms use medians
FIT_PROBE_REPEATS = 3


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "root": self.spans[parent]["root"] if parent is not None else len(self.spans),
            "run": self.run_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def install(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = original(*args, **kwargs)
                if count is not None:
                    rec["count"] = count(out)
                return out

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def under(self, root_name: str) -> list[dict]:
        """Spans whose root span is named ``root_name``."""
        roots = {s["id"] for s in self.spans if s["parent"] is None and s["name"] == root_name}
        return [s for s in self.spans if s["root"] in roots]

    @staticmethod
    def total(spans: list[dict], *names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out


def _install_cli_wrappers(tracer: Tracer) -> None:
    def rows_of_curves(out):
        return sum(c.k for c in out[0])

    def rows_of_table(out):
        return len(next(iter(out.values())))

    for attr, count in (
        ("load_config", None),
        ("read_curves", rows_of_curves),
        ("read_covariates", rows_of_table),
        ("load_model", None),
        ("save_model", None),
        ("write_curves", None),
    ):
        tracer.install(sbio, attr, f"io.{attr}", count)
    for attr, layer in (
        ("build_response_basis", "basis"),
        ("estimate_pole", "boost"),
        ("boost_fit", "boost"),
        ("cv_early_stop", "boost"),
        ("predict_mean", "boost"),
        ("empirical_risk", "boost"),
        ("rmse_effect", "boost"),
        ("effect_factorization", "factorize"),
        ("predictor_factorization", "factorize"),
    ):
        tracer.install(sbcli, attr, f"{layer}.{attr}")
    # effect_factorization and predictor_factorization look model_grams up here
    tracer.install(sbfac, "model_grams", "factorize.model_grams")


def _unpack(pair) -> np.ndarray:
    return np.asarray(pair[0]) + 1j * np.asarray(pair[1])


def _probes(tracer: Tracer, workdir: Path, workload: str, checks: dict) -> dict:
    """Direct calls into the layers, each inside a span; returns probe-only facts."""
    kind, config, sample, covariates = load_inputs(workdir)
    model, _ = sbio.load_model(workdir / "model.json")
    n = len(sample)
    basis = model.basis

    with tracer.span("basis.constraint_matrix"):
        C = constraint_matrix(sample, model.pole, kind)
    with tracer.span("basis.nullspace_transform"):
        transform = nullspace_transform(C)

    with tracer.span("effects.curve_gram", count=n):
        cols = transform.complex_columns
        grams = [curve_gram(curve_design(basis, c, config.coef_mode) @ cols, c.weights) for c in sample]
    p_tan = {}
    parents: dict[str, np.ndarray] = {}
    for spec in config.effects:
        with tracer.span("effects.covariate_design"):
            design, cmap = covariate_design(spec, covariates, n, parents)
        parents[spec.name] = design
        tan_kind = config.response_penalty if spec.penalty_tangent == "inherit" else spec.penalty_tangent
        if tan_kind not in p_tan:
            with tracer.span("basis.PenaltyBlock.build"):
                p_tan[tan_kind] = PenaltyBlock.build(basis, transform, tan_kind).P_perp
        with tracer.span("effects.assemble_psi_matrix"):
            Psi = assemble_psi_matrix(design, grams)
        with tracer.span("effects.df_to_lambda"):
            df_to_lambda(Psi, cmap.penalty, p_tan[tan_kind], spec.df_target)

    for _ in range(FIT_PROBE_REPEATS):
        for iterations in (0, config.max_iterations):
            with tracer.span("boost.boost_fit", iterations=iterations):
                boost_fit(sample, covariates, dataclasses.replace(config, max_iterations=iterations), model.pole, kind)

    with tracer.span("boost.transported_residuals"):
        residuals = transported_residuals(model, sample, covariates).residuals

    # the geometry module's Log and transport against boost's inlined copy
    worst = 0.0
    for i, curve in enumerate(sample):
        x = {name: covariates[name][i] for name in covariates}
        with tracer.span("boost.predict_mean"):
            mu = predict_mean(model, x, curve.grid, curve.weights)
        with tracer.span("geometry.log_map"):
            eps = log_map(mu, curve, kind)
        with tracer.span("geometry.parallel_transport"):
            moved = parallel_transport(eps.pole_evals, residuals[i].pole_evals, eps, kind, check=False)
        ref = residuals[i]
        worst = max(worst, empirical_norm(moved.values - ref.values, curve.weights) / max(ref.norm(), 1e-12))
    checks["geometry_matches_boost"] = worst <= 1e-6
    facts = {"geometry_max_rel_diff": worst}

    spec = WORKLOADS[workload]
    if "cv" in spec["ops"]:
        cv_cfg = dataclasses.replace(config, cv_folds=spec["folds"])
    else:
        cv_cfg = dataclasses.replace(config, cv_folds=CV_PROBE_FOLDS, max_iterations=CV_PROBE_ITERATIONS)
    cv_s = {}
    fold_risks = {}
    for workers in (2, 1):
        with tracer.span("boost.cv_early_stop", workers=workers) as rec:
            fold_risks[workers] = cv_early_stop(sample, covariates, cv_cfg, kind, pole=model.pole, workers=workers).fold_risks
        cv_s[workers] = rec["end"] - rec["start"]
    checks["cv_serial_equals_parallel"] = bool(np.array_equal(fold_risks[1], fold_risks[2]))
    if "cv" in spec["ops"]:
        cli = np.asarray(read_cv(workdir / "cv.csv")["cv_fold_risks"])
        checks["cv_command_equals_probe"] = bool(np.array_equal(cli, fold_risks[1]))
    facts["cv_serial_s"] = cv_s[1]
    facts["cv_parallel_s"] = cv_s[2]
    facts["cv_residuals"] = (cv_cfg.cv_folds - 1) * n * (cv_cfg.max_iterations + 1)

    if "eval" not in spec["ops"]:
        truth = json.loads((workdir / "coef_truth.json").read_text())
        total = [_unpack(v) for v in truth["total"]]
        poles = [_unpack(v) for v in truth["pole"]]
        zero = [np.zeros(c.k, dtype=complex) for c in sample]
        for eff in model.effects:
            name = eff.spec.name
            true_evals = [_unpack(v) for v in truth["effects"][name]] if name in truth["effects"] else zero
            with tracer.span("boost.rmse_effect"):
                rmse_effect(model, sample, covariates, name, true_evals, total, poles)
        with tracer.span("boost.empirical_risk"):
            empirical_risk(model, sample, covariates)
    facts["n"] = n
    facts["iterations"] = config.max_iterations
    return facts


def traced_run(workdir: Path, workload: str, run_id: str) -> dict:
    """Untraced pipeline, traced pipeline, probes; returns metrics, checks and spans."""
    cmds = commands(workdir, workload)
    attempted = failed = 0
    untraced = {}
    for op, argv in cmds:
        attempted += 1
        ok, untraced[op] = run_command(argv)
        failed += not ok
    results_untraced = read_results(workdir, workload) if not failed else None
    # a second, warm fit: the untraced side of the tracing overhead
    attempted += 1
    ok, fit_untraced = run_command(dict(cmds)["fit"])
    failed += not ok

    tracer = Tracer(run_id)
    _install_cli_wrappers(tracer)
    try:
        for op, argv in cmds:
            attempted += 1
            with tracer.span(f"cli.{op}"):
                ok, _ = run_command(argv)
            failed += not ok
    finally:
        tracer.restore()
    if failed:
        return {"attempted": attempted, "failed": failed, "checks": {}, "metrics": {}, "spans": tracer.spans}
    results = read_results(workdir, workload)
    checks = {"traced_equals_untraced": results == results_untraced}
    facts = _probes(tracer, workdir, workload, checks)

    fit = tracer.under("cli.fit")
    pred = tracer.under("cli.predict")
    inspect = tracer.under("cli.factorize") + tracer.under("cli.eval")
    everything = [s for op, _ in cmds for s in tracer.under(f"cli.{op}")]
    roots = [s for s in tracer.spans if s["parent"] is None]
    probe = [s for s in roots if not s["name"].startswith("cli.")]
    n, M = facts["n"], facts["iterations"]
    fits = {m: statistics.median(s["end"] - s["start"] for s in probe
                                 if s["name"] == "boost.boost_fit" and s["iterations"] == m) for m in (0, M)}
    fit_zero = fits[0]
    iter_ms = 1e3 * (fits[M] - fit_zero) / M
    n_rows = sum(1 for s in pred if s["name"] == "boost.predict_mean")
    n_curves = sum(1 for s in probe if s["name"] == "geometry.log_map")
    eval_spans = inspect if "eval" in WORKLOADS[workload]["ops"] else probe
    residuals = n * (M + 1) + (facts["cv_residuals"] if "cv" in WORKLOADS[workload]["ops"] else 0)
    metrics = {
        "io.read_s": tracer.total(everything, "io.load_config", "io.read_curves", "io.read_covariates"),
        "io.write_s": tracer.total(everything, "io.save_model", "io.write_curves"),
        "io.rows_read": sum(s.get("count", 0) for s in everything if s["name"] in ("io.read_curves", "io.read_covariates")),
        "basis.constraint_s": tracer.total(probe, "basis.constraint_matrix", "basis.nullspace_transform"),
        "effects.psi_assembly_s": tracer.total(probe, "effects.assemble_psi_matrix"),
        "effects.df_calibration_s": tracer.total(probe, "effects.df_to_lambda"),
        "boost.pole_s": tracer.total(fit, "boost.estimate_pole"),
        "boost.setup_s": fit_zero,
        "boost.iter_ms": iter_ms,
        "boost.us_per_curve_residual": 1e3 * iter_ms / n,
        "boost.residual_pass_ms": 1e3 * tracer.total(probe, "boost.transported_residuals"),
        "boost.curve_residuals": residuals,
        "boost.cv_serial_s": facts["cv_serial_s"],
        "boost.cv_speedup": facts["cv_serial_s"] / facts["cv_parallel_s"],
        "boost.predict_ms_per_row": 1e3 * tracer.total(pred, "boost.predict_mean") / max(n_rows, 1),
        "boost.eval_s": tracer.total(eval_spans, "boost.rmse_effect", "boost.empirical_risk"),
        "factorize.grams_s": tracer.total(inspect, "factorize.model_grams"),
        "factorize.effects_s": tracer.total(inspect, "factorize.effect_factorization", "factorize.predictor_factorization"),
        "geometry.log_transport_us": 1e6 * tracer.total(probe, "geometry.log_map", "geometry.parallel_transport") / n_curves,
        "trace.fit_overhead_s": tracer.total(roots, "cli.fit") - fit_untraced,
    }
    for layer, seconds in sorted(tracer.self_times().items()):
        metrics[f"self.{layer}_s"] = seconds
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        "results": results,
        "facts": facts,
        "untraced": dict(untraced, warm_fit=fit_untraced),
        "spans": tracer.spans,
    }
