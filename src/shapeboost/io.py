"""File formats: curve/covariate CSV, config JSON, model persistence.

Curves travel as long CSV with header ``curve_id,t,re,im`` (functional mode)
or ``curve_id,index,re,im`` (landmark mode, index 1..k mapped to [0,1]), with
an optional per-point weight column ``w``.  Covariates are one CSV row per
curve keyed by ``curve_id``.  Model and configuration files are JSON; model
files are self-contained (pole coefficients, basis, tangent transform and all
effect coefficient matrices), so prediction needs no training data.  Complex
numbers are stored as separate re/im fields throughout.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from .basis import BSplineBasis, PoleCoef, SplineConfig, TangentTransform
from .boost import BoostConfig, FittedEffect, FittedModel
from .effects import CovariateMap, EffectSpec
from .geometry import WEIGHT_RULES, CurveSample, GeometryError, GeometryKind, rule_weights

__all__ = [
    "SchemaError",
    "read_curves",
    "write_curves",
    "read_covariates",
    "read_covariate_table",
    "read_residual_pool",
    "parse_config",
    "load_config",
    "config_hash",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "shapeboost-model-v1"


class SchemaError(ValueError):
    """Malformed input file or configuration."""


def _read_rows(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and (file line number, fields) of every data row; comment lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows:
        raise SchemaError(f"{path}: empty file")
    return [h.strip() for h in rows[0][1]], rows[1:]


def read_curves(
    path: str | Path,
    weight_rule: str = "trapezoid",
    basis: BSplineBasis | None = None,
) -> tuple[list[CurveSample], bool]:
    """Read a curve file; returns the sample and whether it was landmark mode.

    Weight rules: trapezoid/uniform quadrature from the grid, ``column`` for a
    per-point ``w`` column, ``gram`` for the full response-basis Gram matrix
    (coefficient-level data; every curve must then have k = basis dimension,
    and only this rule reads ``basis``).  A curve that fails the check of
    ``CurveSample`` is a ``SchemaError`` naming the file and the curve.
    """
    if weight_rule not in WEIGHT_RULES:
        raise SchemaError(f"unknown weight rule {weight_rule!r}")
    header, rows = _read_rows(path)
    landmark = False
    if header[:4] == ["curve_id", "t", "re", "im"]:
        pass
    elif header[:4] == ["curve_id", "index", "re", "im"]:
        landmark = True
    else:
        raise SchemaError(
            f"{path}: header must start with curve_id,t,re,im or curve_id,index,re,im, got {header}"
        )
    has_w = len(header) > 4 and header[4] == "w"
    if weight_rule == "column" and not has_w:
        raise SchemaError(f"{path}: weight rule 'column' needs a w column")

    order: list[str] = []
    data: dict[str, list[tuple[float, complex, float]]] = {}
    for lineno, row in rows:
        if len(row) < 4 + int(has_w):
            raise SchemaError(f"{path}:{lineno}: expected {4 + int(has_w)} fields, got {len(row)}")
        cid = row[0]
        try:
            t = float(row[1])
            val = complex(float(row[2]), float(row[3]))
            w = float(row[4]) if has_w else np.nan
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(t) and cmath.isfinite(val)):
            raise SchemaError(f"{path}:{lineno}: curve {cid!r}: t, re and im must be finite")
        if cid not in data:
            data[cid] = []
            order.append(cid)
        data[cid].append((t, val, w))

    if weight_rule == "gram" and basis is None:
        raise SchemaError("gram weights need the response basis")
    gram = basis.gram if weight_rule == "gram" else None
    curves = []
    for cid in order:
        pts = data[cid]
        t = np.array([p[0] for p in pts])
        vals = np.array([p[1] for p in pts])
        if landmark:
            k = len(pts)
            if not np.array_equal(t, np.arange(1, k + 1, dtype=float)):
                raise SchemaError(f"{path}: curve {cid!r}: landmark indices must be 1..{k} in order")
            grid = (t - 1) / max(k - 1, 1)
        else:
            grid = t
        if weight_rule == "gram" and len(pts) != basis.dim:
            raise SchemaError(
                f"{path}: curve {cid!r}: gram mode needs k = basis dimension {basis.dim}, got {len(pts)}"
            )
        try:
            w = np.array([p[2] for p in pts]) if weight_rule == "column" else rule_weights(weight_rule, grid, gram)
        except GeometryError as exc:  # e.g. a one-point grid has no trapezoid weights
            raise SchemaError(f"{path}: curve {cid!r}: {exc}") from None
        # CurveSample is the one curve check: grid, point count, weights and degenerate values
        try:
            curves.append(CurveSample(id=cid, grid=grid, values=vals, weights=w))
        except GeometryError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    return curves, landmark


def write_curves(path: str | Path, rows: list[tuple[str, np.ndarray, np.ndarray]], comment: str | None = None) -> None:
    """Write curves as long CSV (curve_id,t,re,im)."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "t", "re", "im"])
        for cid, grid, values in rows:
            values = np.asarray(values, dtype=complex)
            columns = (np.asarray(grid, dtype=float).tolist(), values.real.tolist(), values.imag.tolist())
            writer.writerows(zip(repeat(cid), *(map(repr, col) for col in columns)))


def read_covariate_table(path: str | Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a covariate table: its curve ids in file order and one column per covariate.

    Columns stay strings: categorical levels keep their file spelling, and
    numeric columns are converted where an effect actually needs numbers.
    """
    header, rows = _read_rows(path)
    if header[0] != "curve_id":
        raise SchemaError(f"{path}: first column must be curve_id, got {header[:1]}")
    first_line: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        if row[0] in first_line:
            raise SchemaError(f"{path}:{lineno}: duplicate curve_id {row[0]!r} (first on line {first_line[row[0]]})")
        first_line[row[0]] = lineno
    ids = [row[0] for _, row in rows]
    return ids, {col: np.array([row[j] for _, row in rows]) for j, col in enumerate(header[1:], start=1)}


def read_covariates(path: str | Path, curve_ids: list[str]) -> dict[str, np.ndarray]:
    """Read the covariate table and align rows with the curve order."""
    ids, table = read_covariate_table(path)
    if not table:
        raise SchemaError(f"{path}: no covariate columns")
    position = {cid: i for i, cid in enumerate(ids)}
    missing = [cid for cid in curve_ids if cid not in position]
    if missing:
        raise SchemaError(f"{path}: missing covariate rows for curve ids {missing[:5]}")
    order = np.array([position[cid] for cid in curve_ids], dtype=int)
    return {col: values[order] for col, values in table.items()}


def read_residual_pool(path: str | Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Residual pool file: long CSV of tangent evaluations at a stated pole."""
    curves, _ = read_curves(path, weight_rule="uniform")
    return [(c.grid, c.values) for c in curves]


# ---------------------------------------------------------------------------
# configuration

_CONFIG_KEYS = {"geometry", "response_basis", "response_penalty", "weights", "effects", "boosting"}
_BASIS_KEYS = {"degree", "n_knots", "cyclic", "knot_rule"}
_EFFECT_KEYS = {
    "name",
    "kind",
    "covariates",
    "basis",
    "df",
    "penalty",
    "tangent_penalty",
    "centering",
    "parents",
}
_BOOST_KEYS = {"eta", "iterations", "folds", "seed"}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_spline(d: dict, where: str) -> SplineConfig:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    _check_keys(d, _BASIS_KEYS, where)
    try:
        return SplineConfig(
            degree=int(d.get("degree", 3)),
            n_knots=int(d.get("n_knots", 10)),
            cyclic=bool(d.get("cyclic", False)),
            knot_rule=str(d.get("knot_rule", "equidistant")),
        )
    except (GeometryError, ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def parse_config(doc: dict) -> tuple[GeometryKind, BoostConfig]:
    """Validate a model configuration document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise SchemaError("config: expected a JSON object")
    _check_keys(doc, _CONFIG_KEYS, "config")
    if "geometry" not in doc:
        raise SchemaError("config: missing 'geometry'")
    try:
        kind = GeometryKind.parse(doc["geometry"])
    except GeometryError as exc:
        raise SchemaError(f"config: {exc}") from None
    weight_rule = str(doc.get("weights", "trapezoid"))
    if weight_rule not in WEIGHT_RULES:
        raise SchemaError(f"config: unknown weight rule {weight_rule!r}")
    response_basis = _parse_spline(doc.get("response_basis", {}), "config.response_basis")
    response_penalty = str(doc.get("response_penalty", "second_diff"))
    if response_penalty not in ("ridge", "second_diff", "none"):
        raise SchemaError(f"config: unknown response penalty {response_penalty!r}")

    effects = []
    if "effects" not in doc or not doc["effects"]:
        raise SchemaError("config: at least one effect is required")
    for i, e in enumerate(doc["effects"]):
        where = f"config.effects[{i}]"
        if not isinstance(e, dict):
            raise SchemaError(f"{where}: expected an object")
        _check_keys(e, _EFFECT_KEYS, where)
        for req in ("name", "kind"):
            if req not in e:
                raise SchemaError(f"{where}: missing {req!r}")
        basis = _parse_spline(e["basis"], f"{where}.basis") if "basis" in e else None
        try:
            effects.append(
                EffectSpec(
                    name=str(e["name"]),
                    kind=str(e["kind"]),
                    covariates=tuple(e.get("covariates", ())),
                    covariate_basis=basis,
                    df_target=float(e.get("df", 4.0)),
                    penalty_covariate=str(e.get("penalty", "ridge")),
                    penalty_tangent=str(e.get("tangent_penalty", "inherit")),
                    centering=str(e.get("centering", "sum_to_zero")),
                    parents=tuple(e.get("parents", ())),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None

    b = doc.get("boosting", {})
    if not isinstance(b, dict):
        raise SchemaError("config.boosting: expected an object")
    _check_keys(b, _BOOST_KEYS, "config.boosting")
    try:
        config = BoostConfig(
            effects=effects,
            step_length=float(b.get("eta", 0.1)),
            max_iterations=int(b.get("iterations", 100)),
            cv_folds=int(b.get("folds", 10)),
            rng_seed=int(b.get("seed", 0)),
            response_basis=response_basis,
            response_penalty=response_penalty,
            weight_rule=weight_rule,
        )
    except ValueError as exc:
        raise SchemaError(f"config.boosting: {exc}") from None
    return kind, config


def load_config(path: str | Path) -> tuple[dict, GeometryKind, str, BoostConfig]:
    """(document, geometry, weight rule, config); the rule repeats ``config.weight_rule`` for ``perfbench``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    kind, config = parse_config(doc)
    return doc, kind, config.weight_rule, config


def config_hash(doc: dict) -> str:
    """Stable hash of a configuration document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# model persistence


def save_model(path: str | Path, model: FittedModel, config_digest: str = "") -> None:
    doc = {
        "format": MODEL_FORMAT,
        "geometry": model.kind.value,
        "weight_rule": model.weight_rule,
        "response_penalty": model.response_penalty,
        "coef_mode": model.coef_mode,  # derived from weight_rule; older v1 readers expect the key
        "seed": model.rng_seed,
        "config_hash": config_digest,
        "response_basis": model.basis.to_dict(),
        "pole": {"re": model.pole.coef.real.tolist(), "im": model.pole.coef.imag.tolist()},
        "transform": model.transform.Z.tolist(),
        "effects": [
            {
                "cmap": eff.cmap.to_dict(),
                "theta": eff.theta.tolist(),
                "lambda": list(eff.lam),
            }
            for eff in model.effects
        ],
        "risk_trace": model.risk_trace.tolist(),
        "m_stop": int(model.m_stop),
        "selection_trace": model.selection_trace.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str | Path) -> tuple[FittedModel, str]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if doc.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path}: not a {MODEL_FORMAT} file")
    basis = BSplineBasis.from_dict(doc["response_basis"])
    pole = PoleCoef(
        coef=np.asarray(doc["pole"]["re"], dtype=float) + 1j * np.asarray(doc["pole"]["im"], dtype=float),
        basis=basis,
    )
    effects = [
        FittedEffect(
            spec=EffectSpec.from_dict(e["cmap"]["spec"]),
            cmap=CovariateMap.from_dict(e["cmap"]),
            theta=np.asarray(e["theta"], dtype=float),
            lam=tuple(e.get("lambda", (0.0, 0.0))),
        )
        for e in doc["effects"]
    ]
    model = FittedModel(
        kind=GeometryKind.parse(doc["geometry"]),
        pole=pole,
        transform=TangentTransform(np.asarray(doc["transform"], dtype=float)),
        effects=effects,
        risk_trace=np.asarray(doc["risk_trace"], dtype=float),
        m_stop=int(doc["m_stop"]),
        selection_trace=np.asarray(doc["selection_trace"], dtype=int),
        response_penalty=str(doc["response_penalty"]),
        weight_rule=str(doc["weight_rule"]),
        rng_seed=int(doc["seed"]),
    )
    return model, str(doc.get("config_hash", ""))
