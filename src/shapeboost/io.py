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
import functools
import hashlib
import json
import math
import sys
from io import StringIO
from pathlib import Path

import numpy as np

from .basis import BSplineBasis, PoleCoef, SplineConfig, TangentTransform
from .boost import BoostConfig, FittedEffect, FittedModel, ModelError
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
    "read_json",
    "write_json",
    "json_value",
    "read_pole",
    "read_truth",
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

    index: dict[str, int] = {}  # curve id -> position in file order
    points = []  # (curve position, t, value, w) of every row
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
        points.append((index.setdefault(cid, len(index)), t, val, w))

    if weight_rule == "gram" and basis is None:
        raise SchemaError("gram weights need the response basis")
    gram = basis.gram if weight_rule == "gram" else None
    # every curve's points in file order, curve after curve
    curve_of, ts, vals, ws = zip(*points) if points else ((), (), (), ())
    order = np.argsort(curve_of, kind="stable")
    cuts = np.cumsum(np.bincount(curve_of, minlength=len(index)))[:-1]
    ids = list(index)
    ts_c, vals_c, ws_c = (np.split(np.array(x)[order], cuts) for x in (ts, vals, ws))
    grids, weights, failure = [], [], None
    for i, (cid, t) in enumerate(zip(ids, ts_c)):
        k = t.size
        if landmark and not np.array_equal(t, np.arange(1, k + 1, dtype=float)):
            failure = SchemaError(f"{path}: curve {cid!r}: landmark indices must be 1..{k} in order")
        elif weight_rule == "gram" and k != basis.dim:
            failure = SchemaError(f"{path}: curve {cid!r}: gram mode needs k = basis dimension {basis.dim}, got {k}")
        else:
            grid = (t - 1) / max(k - 1, 1) if landmark else t
            try:
                w = ws_c[i] if weight_rule == "column" else rule_weights(weight_rule, grid, gram)
            except GeometryError as exc:  # e.g. a one-point grid has no trapezoid weights
                failure = SchemaError(f"{path}: curve {cid!r}: {exc}")
        if failure is not None:
            break
        grids.append(grid)
        weights.append(w)
    # the one curve check, once, on the curves before any that failed above: the first failing curve is reported
    n = len(grids)
    try:
        curves = CurveSample.checked(ids[:n], grids, vals_c[:n], weights)
    except GeometryError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if failure is not None:
        raise failure
    return curves, landmark


def _float_texts(col: np.ndarray) -> list[str]:
    """``repr`` of every float of a 1-D array, from one ``repr`` of the whole list."""
    return repr(col.tolist())[1:-1].split(", ") if col.size else []


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it inside a row (QUOTE_MINIMAL)."""
    buf = StringIO(newline="")
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def write_curves(path: str | Path, rows: list[tuple[str, np.ndarray, np.ndarray]], comment: str | None = None) -> None:
    """Write curves as long CSV (curve_id,t,re,im).

    The bytes are those of ``csv.writer`` with ``repr`` of every float: rows
    end in CRLF and floats are shortest round-trip text.  Each column is
    formatted in one pass, a grid object shared by consecutive rows only
    once, and each curve goes to the file in one write.
    """
    last_grid, grid_text = None, []
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("curve_id,t,re,im\r\n")
        for cid, grid, values in rows:
            if grid is not last_grid:
                last_grid, grid_text = grid, _float_texts(np.asarray(grid, dtype=float))
            values = np.asarray(values, dtype=complex)
            lines = list(map(",".join, zip(grid_text, _float_texts(values.real), _float_texts(values.imag))))
            if lines:
                head = _csv_field(cid) + ","
                fh.write(head + ("\r\n" + head).join(lines) + "\r\n")


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


# typed reads of config values: a value of another JSON type (a bool is not a number) is a TypeError naming the key
def _string(d: dict, key: str) -> str:
    value = d[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {json.dumps(value)}")
    return value


def _strings(d: dict, key: str) -> tuple[str, ...]:
    value = d.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{key!r} must be a list of strings, got {json.dumps(value)}")
    return tuple(value)


def _number(d: dict, key: str, default: float) -> float:
    value = d.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        raise TypeError(f"{key!r} must be a finite number, got {json.dumps(value)}")
    return float(value)


def _integer(d: dict, key: str, default: int) -> int:
    value = d.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise TypeError(f"{key!r} must be an integer, got {json.dumps(value)}")
    return int(value)


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
                    name=_string(e, "name"),
                    kind=_string(e, "kind"),
                    covariates=_strings(e, "covariates"),
                    covariate_basis=basis,
                    df_target=_number(e, "df", 4.0),
                    penalty_covariate=str(e.get("penalty", "ridge")),
                    penalty_tangent=str(e.get("tangent_penalty", "inherit")),
                    centering=str(e.get("centering", "sum_to_zero")),
                    parents=_strings(e, "parents"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from None

    b = doc.get("boosting", {})
    if not isinstance(b, dict):
        raise SchemaError("config.boosting: expected an object")
    _check_keys(b, _BOOST_KEYS, "config.boosting")
    try:
        config = BoostConfig(
            effects=effects,
            step_length=_number(b, "eta", 0.1),
            max_iterations=_integer(b, "iterations", 100),
            cv_folds=_integer(b, "folds", 10),
            rng_seed=_integer(b, "seed", 0),
            response_basis=response_basis,
            response_penalty=response_penalty,
            weight_rule=weight_rule,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"config.boosting: {exc}") from None
    return kind, config


def read_json(path: str | Path) -> dict:
    """The one JSON reader: a file holding one object; invalid JSON is a ``SchemaError`` naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


def json_value(path: str | Path, doc: dict, key: str, convert):
    """``convert(doc[key])``; a missing or ill-typed value is a ``SchemaError`` naming the file and the key."""
    try:
        return convert(doc[key])
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise SchemaError(f"{path}: key {key!r} missing or ill-typed ({type(exc).__name__}: {exc})") from None


def read_pole(path: str | Path, doc: dict) -> PoleCoef:
    """The pole of a model or truth document: its ``response_basis`` and ``pole`` re/im coefficients."""
    basis = json_value(path, doc, "response_basis", BSplineBasis.from_dict)
    return json_value(path, doc, "pole", lambda p: PoleCoef(np.asarray(p["re"]) + 1j * np.asarray(p["im"]), basis))


def read_truth(path: str | Path) -> tuple[PoleCoef, dict[str, np.ndarray], dict[str, CovariateMap]]:
    """Pole, effect fields and effect maps of a truth document (``shapeboost simulate``).

    Each field is a real (2*m0, m_j) matrix: m0 is the response basis
    dimension and m_j the dimension of the field's effect map.
    """
    doc = read_json(path)
    pole = read_pole(path, doc)
    fields = json_value(path, doc, "fields", lambda d: {k: np.asarray(v, float) for k, v in d.items()})
    # every field needs its effect map; a missing one is reported as an ill-typed "effect_maps"
    maps = json_value(path, doc, "effect_maps", lambda d: {k: CovariateMap.from_dict(d[k]) for k in fields})
    for name, V in fields.items():
        expected = (2 * pole.basis.dim, maps[name].m_j)
        if V.shape != expected:
            raise SchemaError(f"{path}: key 'fields': field {name!r} has shape {V.shape}, expected {expected}")
    return pole, fields, maps


def load_config(path: str | Path) -> tuple[dict, GeometryKind, str, BoostConfig]:
    """(document, geometry, weight rule, config); the rule repeats ``config.weight_rule`` for ``perfbench``."""
    doc = read_json(path)
    kind, config = parse_config(doc)
    return doc, kind, config.weight_rule, config


def write_json(path: str | Path, doc: dict) -> None:
    """The one JSON writer: sorted keys, one-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
                "lambda": [eff.lam, eff.lam],  # the (covariate, tangent) pair of the file format
            }
            for eff in model.effects
        ],
        "risk_trace": model.risk_trace.tolist(),
        "m_stop": int(model.m_stop),
        "selection_trace": model.selection_trace.tolist(),
    }
    write_json(path, doc)


def _fitted_effect(e: dict) -> FittedEffect:
    lam = np.asarray(e.get("lambda", (0.0, 0.0)), dtype=float)
    if lam.shape != (2,) or not np.all(np.isfinite(lam) & (lam >= 0)):
        raise ValueError(f"lambda must be two finite numbers >= 0, got {e['lambda']!r}")
    if lam[0] != lam[1]:
        raise ValueError(f"lambda must be one penalty scale given twice, got {e['lambda']!r}")
    return FittedEffect(
        cmap=CovariateMap.from_dict(e["cmap"]),
        theta=np.asarray(e["theta"], dtype=float),
        lam=float(lam[0]),
    )


def load_model(path: str | Path) -> tuple[FittedModel, str]:
    doc = read_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path}: not a {MODEL_FORMAT} file")

    value = functools.partial(json_value, path, doc)
    try:
        model = FittedModel(
            kind=value("geometry", GeometryKind.parse),
            pole=read_pole(path, doc),
            transform=value("transform", lambda Z: TangentTransform(np.asarray(Z, dtype=float))),
            effects=value("effects", lambda effects: [_fitted_effect(e) for e in effects]),
            risk_trace=value("risk_trace", lambda v: np.asarray(v, dtype=float)),
            m_stop=value("m_stop", int),
            selection_trace=value("selection_trace", lambda v: np.asarray(v, dtype=int)),
            response_penalty=value("response_penalty", str),
            weight_rule=value("weight_rule", str),
            rng_seed=value("seed", int),
        )
    except ModelError as exc:  # the model's own checks of its fields
        raise SchemaError(f"{path}: key {exc.key!r}: {exc}") from None
    rows = model.transform.Z.shape[0]
    if rows != 2 * model.basis.dim:
        raise SchemaError(f"{path}: key 'transform' has {rows} rows, expected 2 * {model.basis.dim} (the response basis)")
    for eff in model.effects:
        expected = (model.transform.m, eff.cmap.m_j)
        if eff.theta.shape != expected:
            raise SchemaError(
                f"{path}: key 'effects': theta of {eff.spec.name!r} has shape {eff.theta.shape}, expected {expected}"
            )
    return model, str(doc.get("config_hash", ""))
