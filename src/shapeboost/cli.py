"""Command line interface: fit, cv, predict, factorize, simulate, eval.

Exit codes: 0 success, 2 schema/input error, 3 degenerate geometry,
4 numerical failure.  Error messages name the offending curve where known.
The log level is taken from the SHAPEBOOST_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import factorize
from . import io as sbio
from .basis import build_response_basis, sample_design
from .boost import (
    FitDiverged,
    boost_fit,
    cv_early_stop,
    empirical_risk,
    estimate_pole,
    model_sample,
    predict_mean,  # noqa: F401  (kept in this namespace for instrumentation that wraps it)
    predict_means,
    rmse_effect,
)
from .effects import EffectError
from .factorize import direction_visual, effect_factorization, predictor_factorization
from .geometry import DegenerateAlignment, GeometryError, GeometryKind, PackedSample
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
    """The config document with the command's flags written over its values, before it is validated."""
    given = {name: val for name, val in vars(args).items() if val is not None}
    doc.update({name: given[name] for name in ("geometry", "weights") if name in given})
    boosting = {name: given[name] for name in ("eta", "iterations", "folds", "seed") if name in given}
    if boosting and isinstance(doc.get("boosting", {}), dict):  # any other boosting entry is parse_config's to reject
        doc["boosting"] = {**doc.get("boosting", {}), **boosting}
    return doc


def _read_sample(args: argparse.Namespace, weight_rule: str, basis):
    """The curves and the covariate rows aligned with them."""
    sample, _ = sbio.read_curves(args.curves, weight_rule=weight_rule, basis=basis)
    return sample, sbio.read_covariates(args.covariates, [c.id for c in sample])


def _load_inputs(args: argparse.Namespace):
    """Config (flags applied, parsed once), curves and covariates of fit and cv."""
    doc = _apply_overrides(sbio.read_json(args.config), args)
    kind, config = sbio.parse_config(doc)
    basis = build_response_basis(config.response_basis, np.empty(0)) if config.coef_mode else None
    return (doc, kind, config, *_read_sample(args, config.weight_rule, basis))


def _load_model_inputs(args: argparse.Namespace):
    """Model, its config hash, and the curves and covariates it is evaluated on (factorize, eval)."""
    model, digest = sbio.load_model(args.model)
    return (model, digest, *_read_sample(args, model.weight_rule, model.basis))


def cmd_fit(args: argparse.Namespace) -> int:
    doc, kind, config, sample, covariates = _load_inputs(args)
    pole = estimate_pole(sample, kind, config.response_basis, config)
    model = boost_fit(sample, covariates, config, pole, kind)
    sbio.save_model(args.out, model, sbio.config_hash(doc))
    log.info("fit done: %d iterations, final risk %.6g", config.max_iterations, model.risk_trace[-1])
    print(f"risk {model.risk_trace[-1]:.8g}")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise sbio.SchemaError(f"--threads must be at least 1, got {args.threads}")
    doc, kind, config, sample, covariates = _load_inputs(args)
    result = cv_early_stop(sample, covariates, config, kind, workers=args.threads)
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
        # the gram rule checks that every coefficient-mode grid has basis-dimension points
        rule = "gram" if model.coef_mode else "uniform"
        ref, _ = sbio.read_curves(args.grid_from, weight_rule=rule, basis=model.basis)
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
    if args.tau is not None and not (np.isfinite(args.tau) and args.tau > 0):
        raise sbio.SchemaError(f"--tau must be finite and positive, got {args.tau}")
    model, digest, sample, covariates = _load_model_inputs(args)
    report = {"config_hash": digest, "effects": {}, "predictor": None}
    facs = {}
    grams = factorize.model_grams(model, sample, covariates)  # shared by every factorization below
    for eff in model.effects:
        fac = effect_factorization(model, sample, covariates, eff.spec.name, grams=grams)
        facs[eff.spec.name] = fac
        report["effects"][eff.spec.name] = {
            "singular_values": fac.singular_values.tolist(),
            "variance_shares": fac.variance_shares.tolist(),
            "total_variance": fac.total_variance,
            "directions": fac.directions.tolist(),
            "scalar_coefs": fac.scalar_coefs.tolist(),
        }
    joint = predictor_factorization(model, sample, covariates, grams=grams)
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
    sbio.write_json(args.out, report)
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
    sbio.write_json(args.out_truth, truth_doc)
    print(f"simulated n={cfg.n} curves, realized noise-to-signal {dtruth.nsr:.4f}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model, digest, sample, covariates = _load_model_inputs(args)
    tpole, fields, maps = sbio.read_truth(args.truth)

    # truth evaluations on the sample grids, split per curve; rmse_effect centers the true pole
    n, m0 = len(sample), tpole.basis.dim
    packed = PackedSample.of(sample, sample_design(tpole.basis, sample))
    cuts = packed.offsets[1:-1]
    zero = np.zeros(packed.offsets[-1], dtype=complex)
    effect_evals = {
        name: packed.field(maps[name].design(covariates, n) @ (V[:m0] + 1j * V[m0:]).T) for name, V in fields.items()
    }
    total_evals = np.split(sum(effect_evals.values(), zero), cuts)
    pole_evals = np.split(packed.band @ tpole.coef, cuts)
    results = []
    ps = model_sample(model, sample)  # shared by every evaluation below
    for eff in model.effects:
        name = eff.spec.name
        true_evals = np.split(effect_evals.get(name, zero), cuts)
        r = rmse_effect(model, sample, covariates, name, true_evals, total_evals, pole_evals, pole_sample=ps)
        results.append((name, r, name in effect_evals))
    risk = empirical_risk(model, sample, covariates, pole_sample=ps)
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
