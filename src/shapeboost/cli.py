"""Command line interface: fit, cv, predict, factorize, simulate, eval.

Exit codes: 0 success, 2 schema/input error, 3 degenerate geometry,
4 numerical failure.  Error messages name the offending curve where known.
The log level is taken from the SHAPEBOOST_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import io as sbio
from .basis import build_response_basis
from .boost import (
    FitDiverged,
    boost_fit,
    cv_early_stop,
    empirical_risk,
    estimate_pole,
    predict_mean,  # noqa: F401  (kept in this namespace for instrumentation that wraps it)
    predict_means,
    rmse_effect,
)
from .effects import EffectError
from .factorize import direction_visual, effect_factorization, predictor_factorization
from .geometry import DegenerateAlignment, GeometryError, GeometryKind
from .simulate import SimConfig, gen_dataset, gen_truth

log = logging.getLogger("shapeboost")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4


def _setup_logging() -> None:
    level = os.environ.get("SHAPEBOOST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(message)s")


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "geometry", None):
        doc["geometry"] = args.geometry
    if getattr(args, "weights", None):
        doc["weights"] = args.weights
    boosting = dict(doc.get("boosting", {}))
    for key, name in (("eta", "eta"), ("iterations", "iterations"), ("folds", "folds"), ("seed", "seed")):
        val = getattr(args, name, None)
        if val is not None:
            boosting[key] = val
    if boosting:
        doc["boosting"] = boosting
    return doc


def _load_inputs(args: argparse.Namespace):
    doc, _, _, _ = sbio.load_config(args.config)
    doc = _apply_overrides(doc, args)
    kind, config = sbio.parse_config(doc)
    basis = build_response_basis(config.response_basis, np.empty(0)) if config.coef_mode else None
    sample, _ = sbio.read_curves(args.curves, weight_rule=config.weight_rule, basis=basis)
    covariates = sbio.read_covariates(args.covariates, [c.id for c in sample])
    return doc, kind, config, sample, covariates


def cmd_fit(args: argparse.Namespace) -> int:
    doc, kind, config, sample, covariates = _load_inputs(args)
    pooled_t = np.concatenate([c.grid for c in sample])
    basis = build_response_basis(config.response_basis, pooled_t)
    pole = estimate_pole(sample, kind, basis, config)
    model = boost_fit(sample, covariates, config, pole, kind)
    sbio.save_model(args.out, model, sbio.config_hash(doc))
    log.info("fit done: %d iterations, final risk %.6g", config.max_iterations, model.risk_trace[-1])
    print(f"risk {model.risk_trace[-1]:.8g}")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    doc, kind, config, sample, covariates = _load_inputs(args)
    pooled_t = np.concatenate([c.grid for c in sample])
    basis = build_response_basis(config.response_basis, pooled_t)
    pole = estimate_pole(sample, kind, basis, config)
    result = cv_early_stop(sample, covariates, config, kind, pole=pole, workers=args.threads)
    digest = sbio.config_hash(doc)
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# config={digest} m_stop={result.m_stop}\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_risk"] + [f"fold{f}" for f in range(config.cv_folds)])
        for it in range(result.cv_risk.size):
            writer.writerow(
                [it, repr(float(result.cv_risk[it]))] + [repr(float(v)) for v in result.fold_risks[:, it]]
            )
    print(f"m_stop {result.m_stop}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    if args.points < 3:
        raise sbio.SchemaError(f"--points must be at least 3, got {args.points}")
    model, digest = sbio.load_model(args.model)
    # prediction needs no curve alignment: rows are predicted in file order
    ids, table = sbio.read_covariate_table(args.covariates)
    grids: dict[str, np.ndarray] = {}
    if args.grid_from:
        ref, _ = sbio.read_curves(args.grid_from, weight_rule="uniform")
        grids = {c.id: c.grid for c in ref}
    if model.coef_mode:
        default_grid = np.arange(model.basis.dim, dtype=float) / (model.basis.dim - 1)
    else:
        default_grid = np.linspace(0.0, 1.0, args.points)
    row_grids = [grids.get(cid, default_grid) for cid in ids]
    means = predict_means(model, table, row_grids)
    sbio.write_curves(args.out, list(zip(ids, row_grids, means)), comment=f"config={digest}")
    return EXIT_OK


def cmd_factorize(args: argparse.Namespace) -> int:
    model, digest = sbio.load_model(args.model)
    sample, _ = sbio.read_curves(args.curves, weight_rule=model.weight_rule, basis=model.basis)
    covariates = sbio.read_covariates(args.covariates, [c.id for c in sample])
    report = {"config_hash": digest, "method": args.method, "effects": {}, "predictor": None}
    facs = {}
    for eff in model.effects:
        fac = effect_factorization(model, sample, covariates, eff.spec.name, method=args.method)
        facs[eff.spec.name] = fac
        report["effects"][eff.spec.name] = {
            "singular_values": fac.singular_values.tolist(),
            "variance_shares": fac.variance_shares.tolist(),
            "total_variance": fac.total_variance,
            "directions": fac.directions.tolist(),
            "scalar_coefs": fac.scalar_coefs.tolist(),
        }
    joint = predictor_factorization(model, sample, covariates, method=args.method)
    report["predictor"] = {
        "effect_names": joint.effect_names,
        "singular_values": joint.singular_values.tolist(),
        "variance_shares": joint.variance_shares.tolist(),
        "total_variance": joint.total_variance,
        "sub_variances": joint.sub_variances.tolist(),
        "directions": joint.directions.tolist(),
    }
    tau = args.tau
    if tau is None:
        tau = max(np.sqrt(f.total_variance) for f in facs.values()) if facs else 1.0
    report["tau"] = float(tau)
    with open(args.out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if args.svg:
        from .svgplot import direction_svg, scalar_effect_svg

        prefix = Path(args.svg)
        closed = model.basis.cfg.cyclic
        for name, fac in facs.items():
            eff = next(e for e in model.effects if e.spec.name == name)
            for r in range(min(2, fac.singular_values.size)):
                if fac.singular_values[r] <= 1e-12 * max(fac.singular_values[0], 1e-300):
                    continue
                vis = direction_visual(model, fac.directions[:, r], tau)
                share = fac.variance_shares[r] / max(fac.total_variance, 1e-300)
                direction_svg(
                    f"{prefix}_{name}_dir{r + 1}.svg",
                    vis,
                    title=f"{name} component {r + 1} ({100 * share:.1f}% of effect variance)",
                    closed=closed,
                    meta=f"config={digest}",
                )
                zgrid, seval = _scalar_component(eff, fac, r, covariates)
                if zgrid is not None:
                    scalar_effect_svg(
                        f"{prefix}_{name}_fn{r + 1}.svg",
                        zgrid,
                        seval / tau,
                        title=f"{name} effect along component {r + 1} (units of tau)",
                        meta=f"config={digest}",
                    )
    print(f"factorized {len(facs)} effects; tau {tau:.6g}")
    return EXIT_OK


def _scalar_component(eff, fac, r, covariates):
    """Evaluate hhat^(r) over a display grid of the first covariate (if scalar)."""
    spec = eff.spec
    if spec.kind == "smooth":
        z = col = np.linspace(eff.cmap.margins[0].lo, eff.cmap.margins[0].hi, 101)
    elif spec.kind == "linear":
        zdata = np.asarray(covariates[spec.covariates[0]], dtype=float)
        z = col = np.linspace(zdata.min(), zdata.max(), 101)
    elif spec.kind == "categorical":
        col = np.array(eff.cmap.levels)
        z = np.arange(col.size, dtype=float)
    else:
        return None, None
    return z, eff.cmap.design({spec.covariates[0]: col}, z.size) @ fac.scalar_coefs[:, r]


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        n=args.n,
        k_bar=args.kbar,
        kind=args.geometry or "form",
        target_nsr=args.nsr,
        pre_aligned=args.pre_aligned,
        weight_rule=args.weights or "trapezoid",
        seed=args.seed if args.seed is not None else 0,
    )
    truth = gen_truth()
    pool = sbio.read_residual_pool(args.pool) if args.pool else None
    sample, covariates, dtruth = gen_dataset(truth, cfg, pool=pool)
    cfg_doc = {k: (v.value if isinstance(v, GeometryKind) else v) for k, v in vars(cfg).items()}
    digest = sbio.config_hash({"simulate": cfg_doc})
    sbio.write_curves(args.out_curves, [(c.id, c.grid, c.values) for c in sample], comment=f"config={digest}")
    with open(args.out_covariates, "w", newline="") as fh:
        fh.write(f"# config={digest}\n")
        writer = csv.writer(fh)
        cols = sorted(covariates)
        writer.writerow(["curve_id"] + cols)
        for i, c in enumerate(sample):
            writer.writerow([c.id] + [str(covariates[col][i]) for col in cols])
    truth_doc = {
        "config_hash": digest,
        "geometry": cfg.kind.value,
        "nsr": dtruth.nsr,
        "response_basis": truth.pole.basis.to_dict(),
        "pole": {"re": truth.pole.coef.real.tolist(), "im": truth.pole.coef.imag.tolist()},
        "fields": {name: V.tolist() for name, V in dtruth.fields.items()},
        "effect_maps": {name: m.to_dict() for name, m in dtruth.effect_maps.items()},
    }
    with open(args.out_truth, "w") as fh:
        json.dump(truth_doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"simulated n={cfg.n} curves, realized noise-to-signal {dtruth.nsr:.4f}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .basis import BSplineBasis, PoleCoef
    from .effects import CovariateMap

    model, digest = sbio.load_model(args.model)
    sample, _ = sbio.read_curves(args.curves, weight_rule=model.weight_rule, basis=model.basis)
    covariates = sbio.read_covariates(args.covariates, [c.id for c in sample])
    with open(args.truth) as fh:
        tdoc = json.load(fh)
    tbasis = BSplineBasis.from_dict(tdoc["response_basis"])
    tpole = PoleCoef(
        coef=np.asarray(tdoc["pole"]["re"]) + 1j * np.asarray(tdoc["pole"]["im"]), basis=tbasis
    )
    fields = {name: np.asarray(V, dtype=float) for name, V in tdoc["fields"].items()}
    maps = {name: CovariateMap.from_dict(d) for name, d in tdoc["effect_maps"].items()}

    # truth evaluations on the sample grids, split per curve; rmse_effect centers the true pole
    n, m0 = len(sample), tbasis.dim
    sizes = [c.k for c in sample]
    B = tbasis.design(np.concatenate([c.grid for c in sample]))
    seg, cuts = np.repeat(np.arange(n), sizes), np.cumsum(sizes)[:-1]
    zero = np.zeros(B.shape[0], dtype=complex)
    effect_evals = {}
    for name, V in fields.items():
        coefs = maps[name].design(covariates, n) @ (V[:m0] + 1j * V[m0:]).T
        effect_evals[name] = np.sum(B * coefs[seg], axis=1)
    total_evals = np.split(sum(effect_evals.values(), zero), cuts)
    pole_evals = np.split(B @ tpole.coef, cuts)
    results = []
    for eff in model.effects:
        name = eff.spec.name
        true_evals = np.split(effect_evals.get(name, zero), cuts)
        r = rmse_effect(model, sample, covariates, name, true_evals, total_evals, pole_evals)
        results.append((name, r, name in effect_evals))
    risk = empirical_risk(model, sample, covariates)
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# config={digest} risk={risk!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["effect", "rmse", "is_signal"])
        for name, r, signal in results:
            writer.writerow([name, repr(float(r)), int(signal)])
    for name, r, _ in results:
        print(f"rmse {name} {r:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shapeboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--geometry", choices=["shape", "form"])
        p.add_argument("--weights", choices=["trapezoid", "uniform", "column", "gram"])
        p.add_argument("--eta", type=float)
        p.add_argument("--iterations", type=int)
        p.add_argument("--seed", type=int)

    p = sub.add_parser("fit", help="fit a model and write a model file")
    p.add_argument("curves")
    p.add_argument("covariates")
    p.add_argument("config")
    p.add_argument("out")
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", help="cross-validated early stopping; writes a fold-risk CSV")
    p.add_argument("curves")
    p.add_argument("covariates")
    p.add_argument("config")
    p.add_argument("out")
    add_common(p)
    p.add_argument("--folds", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("predict", help="predict conditional mean curves for covariate rows")
    p.add_argument("model")
    p.add_argument("covariates")
    p.add_argument("out")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--grid-from", dest="grid_from")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("factorize", help="tensor-product factorization report (and SVG plots)")
    p.add_argument("model")
    p.add_argument("curves")
    p.add_argument("covariates")
    p.add_argument("out")
    p.add_argument("--method", choices=["cholesky", "qr"], default="cholesky")
    p.add_argument("--svg")
    p.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with known truth")
    p.add_argument("out_curves")
    p.add_argument("out_covariates")
    p.add_argument("out_truth")
    p.add_argument("--n", type=int, default=54)
    p.add_argument("--kbar", type=float, default=40.0)
    p.add_argument("--nsr", type=float, default=1.05)
    p.add_argument("--pre-aligned", action="store_true", dest="pre_aligned")
    p.add_argument("--pool")
    p.add_argument("--geometry", choices=["shape", "form"])
    p.add_argument("--weights", choices=["trapezoid", "uniform"])
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="rMSE of fitted effects against a simulation truth")
    p.add_argument("model")
    p.add_argument("curves")
    p.add_argument("covariates")
    p.add_argument("truth")
    p.add_argument("out")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (sbio.SchemaError, EffectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DegenerateAlignment as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FitDiverged as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
