import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapeboost
from shapeboost import io as sbio
import shapeboost.boost as sbboost
from shapeboost.basis import build_response_basis, sample_design
from shapeboost.boost import cv_early_stop, empirical_risk, estimate_pole, rmse_effect
from shapeboost.cli import main
from shapeboost.factorize import effect_factorization, predictor_factorization
from shapeboost.geometry import PackedSample


CONFIG = {
    "geometry": "form",
    "response_basis": {"degree": 3, "n_knots": 10, "cyclic": True, "knot_rule": "quantile"},
    "response_penalty": "ridge",
    "effects": [
        {"name": "group", "kind": "categorical", "covariates": ["group"], "df": 2},
        {
            "name": "tilt",
            "kind": "smooth",
            "covariates": ["z1"],
            "basis": {"degree": 3, "n_knots": 4},
            "df": 3,
            "penalty": "second_diff",
        },
    ],
    "boosting": {"eta": 0.3, "iterations": 12, "folds": 3, "seed": 5},
}


SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from shapeboost.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(name for name, mod in sys.modules.items() if name.startswith("scipy") and mod is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_commands_run_without_scipy(tmp_path):
    # the package is numpy-only: every command works with scipy unimportable
    f = {name: str(tmp_path / name) for name in ("curves.csv", "covars.csv", "truth.json", "config.json", "m.json")}
    Path(f["config.json"]).write_text(json.dumps({**CONFIG, "boosting": {**CONFIG["boosting"], "iterations": 4}}))
    data = [f["curves.csv"], f["covars.csv"]]
    commands = [
        ["simulate", *data, f["truth.json"], "--n", "18", "--kbar", "12", "--seed", "3"],
        ["fit", *data, f["config.json"], f["m.json"]],
        ["cv", *data, f["config.json"], str(tmp_path / "cv.csv"), "--threads", "1"],
        ["predict", f["m.json"], f["covars.csv"], str(tmp_path / "pred.csv"), "--points", "20"],
        ["factorize", f["m.json"], *data, str(tmp_path / "report.json")],
        ["eval", f["m.json"], *data, f["truth.json"], str(tmp_path / "rmse.csv")],
    ]
    src = str(Path(shapeboost.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, json.dumps(commands)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "scipy": []}, out.stderr


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    curves = base / "curves.csv"
    covars = base / "covars.csv"
    truth = base / "truth.json"
    rc = main(
        [
            "simulate", str(curves), str(covars), str(truth),
            "--n", "36", "--kbar", "25", "--geometry", "form", "--seed", "7", "--nsr", "0.6",
        ]
    )
    assert rc == 0
    config = base / "config.json"
    config.write_text(json.dumps(CONFIG))
    return base, curves, covars, truth, config


def _with_covariate(covars, tmp_path, column, value):
    """Copy of the covariate table with ``value`` in curve row 2 of ``column``."""
    lines = covars.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("curve_id"))
    row = lines[header + 3].split(",")
    row[lines[header].split(",").index(column)] = value
    lines[header + 3] = ",".join(row)
    bad = tmp_path / "bad_covars.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def _csv_reference(rows, comment=None):
    """Bytes of the curve file as ``csv.writer`` writes it with ``repr`` of every float."""
    expected = io.StringIO(newline="")
    if comment:
        expected.write(f"# {comment}\n")
    writer = csv.writer(expected)
    writer.writerow(["curve_id", "t", "re", "im"])
    for cid, g, v in rows:
        for t, z in zip(g, v):
            writer.writerow([cid, repr(float(t)), repr(float(z.real)), repr(float(z.imag))])
    return expected.getvalue().encode()


class TestCurveFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        grid = np.array([0.0, 0.3, 0.7, 1.0])
        vals = np.array([1 + 2j, 3 - 1j, 0.5j, -1.0])
        sbio.write_curves(path, [("a", grid, vals)])
        curves, landmark = sbio.read_curves(path)
        assert not landmark
        assert curves[0].id == "a"
        assert np.array_equal(curves[0].grid, grid)
        assert np.array_equal(curves[0].values, vals)

    def test_write_bytes_match_per_row_formatter(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = np.sort(rng.uniform(0, 1, 200))
        vals = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200) + 1j * rng.normal(size=200)
        vals[:4] = [0.0, -0.0 + 0j, complex(1e-320, -0.0), 1 / 3 - 2j / 3]
        rows = [("a", grid, vals), ('id, with "quotes"', grid[:3], vals[:3].real), ("b", grid[:5], vals[5:10])]
        path = tmp_path / "c.csv"
        sbio.write_curves(path, rows, comment="config=abc")
        expected = io.StringIO(newline="")
        expected.write("# config=abc\n")
        writer = csv.writer(expected)
        writer.writerow(["curve_id", "t", "re", "im"])
        for cid, g, v in rows:
            for t, z in zip(g, v):
                writer.writerow([cid, repr(float(t)), repr(float(z.real)), repr(float(z.imag))])
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("case", ["shared_grid", "equal_grids", "quoted_ids", "no_rows"])
    def test_write_bytes_match_reference(self, tmp_path, case):
        rng = np.random.default_rng(5)
        grid = np.sort(rng.uniform(0, 1, 40))
        other = np.linspace(0.0, 1.0, 7)
        ids = [f"c{i}" for i in range(12)]
        grids = {
            "shared_grid": [grid if i % 3 else other for i in range(12)],  # two grid objects, interleaved
            "equal_grids": [grid.copy() for _ in range(12)],
            "quoted_ids": [grid] * 6,
            "no_rows": [],
        }[case]
        if case == "quoted_ids":
            ids = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "crlf\r\n", ""]
        rows = [(cid, g, rng.normal(size=g.size) + 1j * rng.normal(size=g.size)) for cid, g in zip(ids, grids)]
        path = tmp_path / "c.csv"
        sbio.write_curves(path, rows, comment="config=abc")
        assert path.read_bytes() == _csv_reference(rows, comment="config=abc")

    def test_landmark_mode(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text(
            "curve_id,index,re,im\n" + "".join(f"a,{j},{j}.0,1.0\n" for j in (1, 2, 3, 4))
        )
        curves, landmark = sbio.read_curves(path)
        assert landmark
        assert np.allclose(curves[0].grid, [0, 1 / 3, 2 / 3, 1])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t,re,im\na,0.0,1,2\n")
        with pytest.raises(sbio.SchemaError):
            sbio.read_curves(path)

    def test_nonmonotone_grid_names_curve(self, tmp_path):
        path = tmp_path / "nm.csv"
        path.write_text("curve_id,t,re,im\nq,0.0,1,0\nq,0.5,2,0\nq,0.4,3,0\n")
        with pytest.raises(sbio.SchemaError, match="'q'"):
            sbio.read_curves(path)

    def test_weight_column(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("curve_id,t,re,im,w\na,0.0,1,0,0.2\na,0.5,2,1,0.5\na,1.0,1,2,0.3\n")
        curves, _ = sbio.read_curves(path, weight_rule="column")
        assert np.allclose(curves[0].weights, [0.2, 0.5, 0.3])

    def test_degenerate_curve_rejected(self, tmp_path):
        path = tmp_path / "deg.csv"
        path.write_text("curve_id,t,re,im\na,0.0,1,1\na,0.5,1,1\na,1.0,1,1\n")
        with pytest.raises(sbio.SchemaError):
            sbio.read_curves(path)


def _rows(cid, ts, vals, ws=None):
    return "".join(f"{cid},{float(t)!r},{float(v.real)!r},{float(v.imag)!r}" + ("" if ws is None else f",{ws[j]!r}") + "\n"
                   for j, (t, v) in enumerate(zip(ts, np.asarray(vals, dtype=complex))))


GOOD_T = [0.0, 0.3, 0.6, 1.0]
GOOD_V = [1 + 0j, 2j, -1.5 + 0.5j, 0.5 - 1j]


class TestCurveRejections:
    """Every rejection of the curve check, read through ``read_curves``: its text, and the first failing curve."""

    CASES = {
        "two_points": ("uniform", _rows("a", GOOD_T, GOOD_V) + _rows("b", [0.0, 1.0], [1, 2j]),
                       "curve 'b': need at least 3 evaluation points, got 2"),
        "not_increasing": ("uniform", _rows("a", [0.0, 0.5, 0.4], [1, 2j, 3]), "curve 'a': grid must be strictly increasing"),
        "outside": ("uniform", _rows("a", [-0.5, 0.5, 1.0], [1, 2j, 3]), "curve 'a': grid must lie in [0, 1]"),
        "weight_nan": ("column", _rows("a", GOOD_T, GOOD_V, [0.2, float("nan"), 0.3, 0.2]),
                       "curve 'a': weights must be finite"),
        "weight_zero": ("column", _rows("a", GOOD_T, GOOD_V, [0.2, 0.0, 0.3, 0.2]),
                        "curve 'a': diagonal weights must be strictly positive"),
        "all_equal": ("trapezoid", _rows("a", GOOD_T, GOOD_V) + _rows("b", GOOD_T, [1.5 - 0.5j] * 4),
                      "curve 'b': values are all equal (degenerate)"),
        "overflow": ("trapezoid", _rows("a", GOOD_T, 1e200 * np.array(GOOD_V)),
                     "curve 'a': squared empirical norm overflows (largest |value| 2e+200)"),
        "underflow": ("trapezoid", _rows("a", GOOD_T, 1e-200 * np.array(GOOD_V)),
                      "curve 'a': squared empirical norm underflows (largest centred |value| 1.76e-200)"),
        # the first failing curve in file order wins, whatever its check
        "first_of_two": ("uniform", _rows("a", GOOD_T, GOOD_V) + _rows("b", [0.0, 0.7, 0.2], GOOD_V[:3])
                         + _rows("c", [0.0, 1.0], [1, 2j]), "curve 'b': grid must be strictly increasing"),
        "interleaved": ("uniform", _rows("a", GOOD_T[:1], GOOD_V[:1]) + _rows("b", GOOD_T, [3j] * 4)
                        + _rows("a", [0.5, 0.2, 1.0], GOOD_V[1:]), "curve 'a': grid must be strictly increasing"),
        "check_before_weights": ("trapezoid", _rows("a", GOOD_T, [2.0] * 4) + _rows("b", [0.5], [1]),
                                 "curve 'a': values are all equal (degenerate)"),
        "weights_before_check": ("trapezoid", _rows("a", [0.5], [1]) + _rows("b", GOOD_T, [2.0] * 4),
                                 "curve 'a': trapezoid weights need at least two grid points"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message_and_first_failing_curve(self, tmp_path, case):
        rule, body, message = self.CASES[case]
        path = tmp_path / "c.csv"
        path.write_text(("curve_id,t,re,im,w\n" if rule == "column" else "curve_id,t,re,im\n") + body)
        with pytest.raises(sbio.SchemaError) as err:
            sbio.read_curves(path, weight_rule=rule)
        assert str(err.value) == f"{path}: {message}"

    def test_landmark_indices_checked_in_file_order(self, tmp_path):
        path = tmp_path / "lm.csv"
        lm = "".join(f"{cid},{j},{float(v.real)!r},{float(v.imag)!r}\n" for cid, idx, vals in
                     (("a", (1, 2, 3), GOOD_V), ("b", (1, 3, 2), GOOD_V), ("c", (1, 2, 3), [1j] * 3))
                     for j, v in zip(idx, np.asarray(vals, dtype=complex)))
        path.write_text("curve_id,index,re,im\n" + lm)
        with pytest.raises(sbio.SchemaError) as err:
            sbio.read_curves(path, weight_rule="uniform")
        assert str(err.value) == f"{path}: curve 'b': landmark indices must be 1..3 in order"

    def test_shared_gram_validated_once(self, tmp_path, monkeypatch):
        # every curve of a gram file shares basis.gram: one symmetry test and one Cholesky, not one per curve
        basis = build_response_basis(shapeboost.SplineConfig(3, 6, cyclic=True), np.empty(0))
        grid = np.linspace(0, 1, basis.dim)
        rng = np.random.default_rng(4)
        path = tmp_path / "g.csv"
        path.write_text("curve_id,t,re,im\n" + "".join(
            _rows(f"g{i}", grid, rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)) for i in range(6)))
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a, *args, **kw: calls.append(a) or real(a, *args, **kw))
        curves, _ = sbio.read_curves(path, weight_rule="gram", basis=basis)
        assert len(curves) == 6 and all(c.weights is basis.gram for c in curves)
        assert len(calls) == 1


class TestCovariateFile:
    def test_alignment_and_missing(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("curve_id,g,z\nb,1,0.5\na,0,1.5\n")
        table = sbio.read_covariates(path, ["a", "b"])
        assert table["g"].tolist() == ["0", "1"]
        with pytest.raises(sbio.SchemaError, match="missing"):
            sbio.read_covariates(path, ["a", "c"])


class TestConfig:
    def test_unknown_keys_rejected(self):
        doc = dict(CONFIG)
        doc["extra"] = 1
        with pytest.raises(sbio.SchemaError, match="extra"):
            sbio.parse_config(doc)

    def test_nested_unknown_keys_rejected(self):
        doc = json.loads(json.dumps(CONFIG))
        doc["effects"][0]["mystery"] = True
        with pytest.raises(sbio.SchemaError, match="mystery"):
            sbio.parse_config(doc)

    def test_missing_geometry(self):
        doc = json.loads(json.dumps(CONFIG))
        del doc["geometry"]
        with pytest.raises(sbio.SchemaError, match="geometry"):
            sbio.parse_config(doc)

    @pytest.mark.parametrize(
        "section, key, value, expected",
        [
            ("boosting", "seed", None, "an integer"),
            ("boosting", "seed", 1.5, "an integer"),
            ("boosting", "seed", True, "an integer"),
            ("boosting", "iterations", None, "an integer"),
            ("boosting", "iterations", 2.7, "an integer"),
            ("boosting", "iterations", True, "an integer"),
            ("boosting", "folds", None, "an integer"),
            ("boosting", "folds", 2.5, "an integer"),
            ("boosting", "eta", [1], "a finite number"),
            ("boosting", "eta", "0.1", "a finite number"),
            ("boosting", "eta", True, "a finite number"),
            ("boosting", "eta", float("nan"), "a finite number"),
            ("boosting", "eta", 10**400, "a finite number"),
            ("effect", "name", None, "a string"),
            ("effect", "name", 5, "a string"),
            ("effect", "kind", 3, "a string"),
            ("effect", "covariates", 5, "a list of strings"),
            ("effect", "covariates", "z1", "a list of strings"),
            ("effect", "covariates", [1], "a list of strings"),
            ("effect", "parents", "group", "a list of strings"),
            ("effect", "df", None, "a finite number"),
            ("effect", "df", "3", "a finite number"),
            ("effect", "df", True, "a finite number"),
            ("effect", "df", float("nan"), "a finite number"),
        ],
    )
    def test_ill_typed_value_rejected(self, section, key, value, expected):
        doc = json.loads(json.dumps(CONFIG))
        (doc["boosting"] if section == "boosting" else doc["effects"][1])[key] = value
        where = "config.boosting" if section == "boosting" else r"config.effects\[1\]"
        with pytest.raises(sbio.SchemaError, match=f"^{where}: '{key}' must be {expected}, got "):
            sbio.parse_config(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [("boosting", "seed", None), ("boosting", "iterations", 2.7), ("effect", "name", None), ("effect", "covariates", 5)],
    )
    def test_ill_typed_value_exit2(self, dataset, tmp_path, capsys, section, key, value):
        base, curves, covars, truth, config = dataset
        doc = json.loads(json.dumps(CONFIG))
        (doc["boosting"] if section == "boosting" else doc["effects"][1])[key] = value
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["fit", str(curves), str(covars), str(tmp_path / "c.json"), str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' must be" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_hash_stable_under_key_order(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert sbio.config_hash(a) == sbio.config_hash(b)


class TestCliPipeline:
    def test_fit_round_trip_and_determinism(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        assert main(["fit", str(curves), str(covars), str(config), str(m1)]) == 0
        assert main(["fit", str(curves), str(covars), str(config), str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        model, digest = sbio.load_model(m1)
        m3 = tmp_path / "m3.json"
        sbio.save_model(m3, model, digest)
        assert m1.read_bytes() == m3.read_bytes()

    def test_load_model_parses_each_spec_once(self, dataset, tmp_path, monkeypatch):
        # an effect's spec is its covariate map's: one parse per effect, and the same object
        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        parsed = []
        real = sbio.EffectSpec.from_dict
        monkeypatch.setattr(sbio.EffectSpec, "from_dict", staticmethod(lambda d: parsed.append(d) or real(d)))
        model, _ = sbio.load_model(mfile)
        assert len(parsed) == len(model.effects) == 2
        assert all(eff.spec is eff.cmap.spec for eff in model.effects)
        with pytest.raises(AttributeError):
            model.effects[0].spec = model.effects[1].spec

    def test_missing_covariate_column_exit2(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        bad = json.loads(config.read_text())
        bad["effects"][1]["covariates"] = ["nope"]
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps(bad))
        out = tmp_path / "m.json"
        rc = main(["fit", str(curves), str(covars), str(bad_cfg), str(out)])
        assert rc == 2

    @pytest.mark.parametrize("column,value", [("t", "nan"), ("re", "nan"), ("im", "inf")])
    def test_non_finite_curve_value_exit2(self, dataset, tmp_path, capsys, column, value):
        base, curves, covars, truth, config = dataset
        lines = curves.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("curve_id"))
        row = lines[header + 5].split(",")
        row[lines[header].split(",").index(column)] = value
        lines[header + 5] = ",".join(row)
        bad = tmp_path / "bad_curves.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["fit", str(bad), str(covars), str(config), str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"bad_curves.csv:{header + 6}:" in err and f"curve {row[0]!r}" in err

    @pytest.mark.parametrize("defect", ["all_equal_values", "t_below_zero"])
    def test_invalid_curve_exit2(self, dataset, tmp_path, capsys, defect):
        # the curve check of CurveSample used to surface as degenerate geometry, exit 3
        base, curves, covars, truth, config = dataset
        lines = curves.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("curve_id"))
        cid = lines[header + 1].split(",")[0]
        for i in range(header + 1, len(lines)):
            row = lines[i].split(",")
            if row[0] != cid:
                break
            if defect == "all_equal_values":
                row[2:4] = ["1.5", "-0.5"]
            elif i == header + 1:
                row[1] = "-0.5"
            lines[i] = ",".join(row)
        bad = tmp_path / "bad_curves.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["fit", str(bad), str(covars), str(config), str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_curves.csv" in err and f"curve {cid!r}" in err

    @pytest.mark.parametrize("factor,cause", [(1e200, "overflows"), (1e-200, "underflows")])
    def test_extreme_curve_magnitude_exit2(self, dataset, tmp_path, capsys, factor, cause):
        # scaled by 1e200 a curve used to fail in an SVD (exit 4); by 1e-200 it was called all equal
        base, curves, covars, truth, config = dataset
        lines = curves.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("curve_id"))
        cid = lines[header + 1].split(",")[0]
        for i in range(header + 1, len(lines)):
            row = lines[i].split(",")
            if row[0] != cid:
                break
            row[2:4] = [repr(factor * float(v)) for v in row[2:4]]
            lines[i] = ",".join(row)
        bad = tmp_path / "bad_curves.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["fit", str(bad), str(covars), str(config), str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_curves.csv" in err and f"curve {cid!r}" in err and f"squared empirical norm {cause}" in err

    def test_overflowing_covariate_exit2(self, dataset, tmp_path, capsys):
        # a covariate of 1e300 used to end the fit with a non-finite risk (exit 4)
        base, curves, covars, truth, config = dataset
        bad = _with_covariate(covars, tmp_path, "z1", "1e300")
        rc = main(["fit", str(curves), str(bad), str(config), str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'z1'" in err and "curve row 2" in err and "overflows" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_covariate_exit2(self, dataset, tmp_path, capsys, value):
        # a NaN smooth covariate used to collapse the spline margin and zero the effect
        base, curves, covars, truth, config = dataset
        bad = _with_covariate(covars, tmp_path, "z1", value)
        rc = main(["fit", str(curves), str(bad), str(config), str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'z1'" in err and "curve row 2" in err

    def test_invalid_config_schema_exit2(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        bad_cfg = tmp_path / "bad2.json"
        bad_cfg.write_text(json.dumps({"geometry": "form", "effects": [], "oops": 1}))
        rc = main(["fit", str(curves), str(covars), str(bad_cfg), str(tmp_path / "m.json")])
        assert rc == 2

    def test_predict_matches_in_sample(self, dataset, tmp_path):
        from shapeboost.boost import predict_mean

        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(
            ["predict", str(mfile), str(covars), str(pred), "--grid-from", str(curves)]
        ) == 0
        model, _ = sbio.load_model(mfile)
        sample, _ = sbio.read_curves(curves)
        table = sbio.read_covariates(covars, [c.id for c in sample])
        predicted, _ = sbio.read_curves(pred)
        i = 4
        x = {k: table[k][i] for k in table}
        mu = predict_mean(model, x, sample[i].grid, sample[i].weights)
        assert np.abs(predicted[i].values - mu).max() <= 1e-8

    @pytest.mark.parametrize("column", ["z1", "z2"])
    def test_predict_non_finite_covariate_exit2(self, dataset, tmp_path, capsys, column):
        # a NaN linear covariate used to predict NaN curves, a NaN smooth one to crash in scipy
        base, curves, covars, truth, config = dataset
        doc = json.loads(config.read_text())
        doc["effects"].append({"name": "slope", "kind": "linear", "covariates": ["z2"], "df": 1})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(cfg), str(mfile)]) == 0
        bad = _with_covariate(covars, tmp_path, column, "nan")
        rc = main(["predict", str(mfile), str(bad), str(tmp_path / "pred.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{column!r}" in err and "row 2" in err

    def test_predict_repeated_curve_id_exit2(self, dataset, tmp_path, capsys):
        # a repeated id used to write a predictions file that read_curves rejects
        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        lines = covars.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("curve_id"))
        bad = tmp_path / "dup_covars.csv"
        bad.write_text("\n".join(lines + [lines[header + 3]]) + "\n")
        rc = main(["predict", str(mfile), str(bad), str(tmp_path / "pred.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        cid = lines[header + 3].split(",")[0]
        assert f"dup_covars.csv:{len(lines) + 1}:" in err and f"{cid!r}" in err

    @pytest.mark.parametrize("points", ["0", "1", "2"])
    def test_predict_too_few_points_exit2(self, dataset, tmp_path, capsys, points):
        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        rc = main(["predict", str(mfile), str(covars), str(tmp_path / "pred.csv"), "--points", points])
        assert rc == 2
        assert "--points" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf", "0", "-1"])
    def test_factorize_tau_out_of_range_exit2(self, dataset, fitted, tmp_path, capsys, tau):
        base, curves, covars, truth, config = dataset
        report = tmp_path / "report.json"
        assert main(["factorize", str(fitted), str(curves), str(covars), str(report), "--tau", tau]) == 2
        assert "--tau must be finite and positive" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--nsr", "nan", "noise-to-signal ratio"),
            ("--nsr", "inf", "noise-to-signal ratio"),
            ("--nsr", "-1", "noise-to-signal ratio"),
            ("--kbar", "nan", "average grid size"),
            ("--kbar", "inf", "average grid size"),
        ],
    )
    def test_simulate_out_of_range_exit2(self, tmp_path, capsys, flag, value, message):
        files = [tmp_path / name for name in ("c.csv", "v.csv", "t.json")]
        assert main(["simulate", *map(str, files), "--n", "18", "--kbar", "12", flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not any(f.exists() for f in files)

    def test_cv_writes_risk_table(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        out = tmp_path / "cv.csv"
        rc = main(["cv", str(curves), str(covars), str(config), str(out), "--iterations", "6", "--threads", "1"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config=")
        assert "m_stop=" in lines[0]
        assert len(lines) == 2 + 7  # comment, header, iterations 0..6

    def test_cv_fold_risks_equal_library_calls(self, dataset, tmp_path):
        # the command and a library caller run at the same BLAS thread count, so they agree bit for bit;
        # with full steps, fold risks at 1 and at 2 OpenBLAS threads differ in the last bits on 2 cores
        base, curves, covars, truth, config = dataset
        out = tmp_path / "cv.csv"
        args = ["--iterations", "6", "--eta", "1", "--threads", "1"]
        assert main(["cv", str(curves), str(covars), str(config), str(out), *args]) == 0
        with open(out, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        written = np.array([[float(v) for v in r[2:]] for r in rows[1:]]).T

        doc = {**CONFIG, "boosting": {**CONFIG["boosting"], "iterations": 6, "eta": 1.0}}
        kind, cfg = sbio.parse_config(doc)
        sample, _ = sbio.read_curves(curves, weight_rule=cfg.weight_rule)
        cov = sbio.read_covariates(covars, [c.id for c in sample])
        basis = build_response_basis(cfg.response_basis, np.concatenate([c.grid for c in sample]))
        pole = estimate_pole(sample, kind, basis, cfg)
        for workers in (1, 2, cfg.cv_folds):  # every fold in one lockstep, two chunks, one fold per worker
            fold_risks = cv_early_stop(sample, cov, cfg, kind, pole=pole, workers=workers).fold_risks
            assert np.array_equal(written, fold_risks)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_cv_threads_below_one_exit2(self, dataset, tmp_path, capsys, fake_pool, threads):
        base, curves, covars, truth, config = dataset
        out = tmp_path / "cv.csv"
        assert main(["cv", str(curves), str(covars), str(config), str(out), "--threads", threads]) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert fake_pool == [] and not out.exists()

    def test_cv_threads_capped_at_the_folds(self, dataset, tmp_path, fake_pool):
        # more threads than folds start one worker per fold, and the table is the serial one byte for byte
        base, curves, covars, truth, config = dataset
        tables = []
        for threads in ("1", "8"):
            out = tmp_path / f"cv{threads}.csv"
            assert main(["cv", str(curves), str(covars), str(config), str(out), "--iterations", "4",
                         "--threads", threads]) == 0
            tables.append(out.read_bytes())
        assert fake_pool == [{"max_workers": 3, "chunks": [[0], [1], [2]]}]
        assert tables[0] == tables[1]

    def test_factorize_report_and_svg(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        report = tmp_path / "rep.json"
        prefix = tmp_path / "plots"
        rc = main(
            ["factorize", str(mfile), str(curves), str(covars), str(report), "--svg", str(prefix), "--tau", "0.4"]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert set(doc["effects"]) == {"group", "tilt"}
        assert doc["tau"] == 0.4
        for name, eff in doc["effects"].items():
            shares = np.array(eff["variance_shares"])
            assert np.all(np.diff(shares) <= 1e-12)
            assert eff["total_variance"] == pytest.approx(shares.sum(), rel=1e-9)
        svgs = list(tmp_path.glob("plots_*.svg"))
        assert svgs
        assert all(p.read_text().startswith("<svg") for p in svgs)

    def test_factorize_has_one_gram_root(self, dataset, tmp_path, capsys):
        # the eigendecomposition root is the only one: no --method option, no "method" key in the report
        base, curves, covars, truth, config = dataset
        mfile, report = tmp_path / "m.json", tmp_path / "rep.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["factorize", str(mfile), str(curves), str(covars), str(report), "--method", "qr"])
        assert exc.value.code == 2 and "unrecognized arguments: --method qr" in capsys.readouterr().err
        assert not report.exists()
        assert main(["factorize", str(mfile), str(curves), str(covars), str(report)]) == 0
        assert set(json.loads(report.read_text())) == {"config_hash", "effects", "predictor", "tau"}

    def test_factorize_single_effect_rank_one(self, tmp_path):
        # a single categorical effect yields one dominant component with share 1
        rc = main(
            [
                "simulate", str(tmp_path / "c.csv"), str(tmp_path / "v.csv"), str(tmp_path / "t.json"),
                "--n", "18", "--kbar", "20", "--seed", "3", "--nsr", "0.2",
            ]
        )
        assert rc == 0
        cfg = {
            "geometry": "form",
            "response_basis": {"degree": 3, "n_knots": 8, "cyclic": True},
            "effects": [{"name": "group", "kind": "categorical", "covariates": ["group"], "df": 2}],
            "boosting": {"eta": 0.5, "iterations": 10, "seed": 0},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["fit", str(tmp_path / "c.csv"), str(tmp_path / "v.csv"), str(tmp_path / "cfg.json"), str(tmp_path / "m.json")]) == 0
        assert main(["factorize", str(tmp_path / "m.json"), str(tmp_path / "c.csv"), str(tmp_path / "v.csv"), str(tmp_path / "r.json")]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        shares = np.array(doc["effects"]["group"]["variance_shares"])
        assert shares[0] == pytest.approx(shares.sum(), rel=1e-8)

    def test_simulate_eval_pipeline(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        out = tmp_path / "rmse.csv"
        assert main(["eval", str(mfile), str(curves), str(covars), str(truth), str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[0] == "effect"
        rows = dict((r.split(",")[0], float(r.split(",")[1])) for r in lines[2:])
        assert set(rows) == {"group", "tilt"}
        assert all(v >= 0 for v in rows.values())

    def test_factorize_and_eval_pack_the_model_sample_once(self, dataset, tmp_path, monkeypatch):
        base, curves, covars, truth, config = dataset
        mfile = tmp_path / "m.json"
        assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
        packed = []
        real = sbboost._PoleSample.__init__
        monkeypatch.setattr(sbboost._PoleSample, "__init__", lambda self, *a, **k: packed.append(1) or real(self, *a, **k))
        report, rmse = tmp_path / "report.json", tmp_path / "rmse.csv"
        assert main(["factorize", str(mfile), str(curves), str(covars), str(report)]) == 0
        assert len(packed) == 1  # one model sample for five effect factorizations and the joint one
        packed.clear()
        assert main(["eval", str(mfile), str(curves), str(covars), str(truth), str(rmse)]) == 0
        assert len(packed) == 1  # one model sample for the rMSE of every effect and the risk
        # the shared sample gives the numbers that one call per evaluation gives, bit for bit
        model, _ = sbio.load_model(mfile)
        sample, _ = sbio.read_curves(curves)
        cov = sbio.read_covariates(covars, [c.id for c in sample])
        doc = json.loads(report.read_text())
        for name, eff in doc["effects"].items():
            fac = effect_factorization(model, sample, cov, name)
            assert eff["singular_values"] == fac.singular_values.tolist()
            assert eff["directions"] == fac.directions.tolist()
        assert doc["predictor"]["sub_variances"] == predictor_factorization(model, sample, cov).sub_variances.tolist()
        lines = rmse.read_text().splitlines()
        assert lines[0].endswith(f"risk={empirical_risk(model, sample, cov)!r}")
        tpole, fields, maps = sbio.read_truth(truth)
        tp = PackedSample.of(sample, sample_design(tpole.basis, sample))
        m0, cuts = tpole.basis.dim, tp.offsets[1:-1]
        evals = {k: tp.field(maps[k].design(cov, len(sample)) @ (V[:m0] + 1j * V[m0:]).T) for k, V in fields.items()}
        total = np.split(sum(evals.values()), cuts)
        for row in lines[2:]:
            name, value, _ = row.split(",")
            r = rmse_effect(model, sample, cov, name, np.split(evals[name], cuts), total, np.split(tp.band @ tpole.coef, cuts))
            assert value == repr(float(r))

    def test_simulate_determinism(self, tmp_path):
        args = ["--n", "18", "--kbar", "15", "--seed", "9"]
        for tag in ("a", "b"):
            rc = main(
                ["simulate", str(tmp_path / f"c{tag}.csv"), str(tmp_path / f"v{tag}.csv"), str(tmp_path / f"t{tag}.json")] + args
            )
            assert rc == 0
        assert (tmp_path / "ca.csv").read_bytes() == (tmp_path / "cb.csv").read_bytes()
        assert (tmp_path / "va.csv").read_bytes() == (tmp_path / "vb.csv").read_bytes()
        assert (tmp_path / "ta.json").read_bytes() == (tmp_path / "tb.json").read_bytes()

    def test_missing_file_exit2(self, tmp_path):
        rc = main(["fit", "nope.csv", "nope2.csv", "nope3.json", str(tmp_path / "m.json")])
        assert rc == 2

    def test_landmark_pipeline(self, tmp_path):
        # landmark configurations with a basis dimension matching k: the
        # spline design is then a bijection, i.e. landmark-level modeling
        rng = np.random.default_rng(4)
        base = rng.normal(size=8) + 1j * rng.normal(size=8)
        shift = rng.normal(size=8) * 0.3
        lines = ["curve_id,index,re,im"]
        cov_lines = ["curve_id,group"]
        for i in range(10):
            vals = base + (0.5 * shift if i % 2 else -0.5 * shift)
            vals = vals + 0.05 * (rng.normal(size=8) + 1j * rng.normal(size=8))
            vals = np.exp(1j * rng.uniform(0, 2 * np.pi)) * vals * rng.uniform(0.5, 2.0)
            for j, v in enumerate(vals, start=1):
                lines.append(f"c{i},{j},{float(v.real)!r},{float(v.imag)!r}")
            cov_lines.append(f"c{i},{i % 2}")
        (tmp_path / "lm.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "cov.csv").write_text("\n".join(cov_lines) + "\n")
        cfg = {
            "geometry": "shape",
            "response_basis": {"degree": 3, "n_knots": 4, "cyclic": False},
            "weights": "uniform",
            "effects": [{"name": "group", "kind": "categorical", "covariates": ["group"], "df": 1}],
            "boosting": {"eta": 0.5, "iterations": 20, "seed": 0},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["fit", str(tmp_path / "lm.csv"), str(tmp_path / "cov.csv"), str(tmp_path / "cfg.json"), str(tmp_path / "m.json")])
        assert rc == 0
        model, _ = sbio.load_model(tmp_path / "m.json")
        assert model.risk_trace[-1] < model.risk_trace[0]

    def test_gram_weights_round_trip(self, tmp_path):
        # coefficient-level data: k = basis dimension, Gram weight matrix
        coef, cov, cfg, basis = _gram_inputs(tmp_path)
        rc = main(["fit", str(coef), str(cov), str(cfg), str(tmp_path / "m.json")])
        assert rc == 0
        model, _ = sbio.load_model(tmp_path / "m.json")
        assert model.coef_mode
        assert model.risk_trace[-1] <= model.risk_trace[0]

    def test_factorize_svg_of_coef_mode_model(self, tmp_path):
        # the direction plots evaluate the model's basis on a dense grid, which a gram model has too
        coef, cov, cfg, basis = _gram_inputs(tmp_path)
        mfile = tmp_path / "m.json"
        assert main(["fit", str(coef), str(cov), str(cfg), str(mfile)]) == 0
        prefix = tmp_path / "plots"
        assert main(["factorize", str(mfile), str(coef), str(cov), str(tmp_path / "rep.json"), "--svg", str(prefix)]) == 0
        svgs = sorted(tmp_path.glob("plots_*_dir1.svg"))
        assert [p.name for p in svgs] == ["plots_group_dir1.svg"]
        assert all(p.read_text().startswith("<svg") for p in svgs)

    def test_predict_coef_mode_grid_needs_basis_dimension(self, tmp_path, capsys):
        # a coefficient-mode row is one value per basis function: a shorter grid used to be
        # written truncated, with the grid's t values against the first coefficients
        from shapeboost.boost import predict_means
        from shapeboost.geometry import GeometryError

        coef, cov, cfg, basis = _gram_inputs(tmp_path)
        mfile = tmp_path / "m.json"
        assert main(["fit", str(coef), str(cov), str(cfg), str(mfile)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(["predict", str(mfile), str(cov), str(pred), "--grid-from", str(coef)]) == 0
        predicted, _ = sbio.read_curves(pred)
        assert len(predicted) == 8 and all(c.k == basis.dim for c in predicted)

        short = tmp_path / "short.csv"
        rng = np.random.default_rng(3)
        sbio.write_curves(short, [(f"c{i}", np.linspace(0, 1, 3), rng.normal(size=3) + 1j) for i in range(8)])
        capsys.readouterr()
        assert main(["predict", str(mfile), str(cov), str(pred), "--grid-from", str(short)]) == 2
        err = capsys.readouterr().err
        assert str(short) in err and "'c0'" in err

        model, _ = sbio.load_model(mfile)
        table = {"group": np.array(["0", "1"])}
        with pytest.raises(GeometryError, match="prediction row 1"):
            predict_means(model, table, [np.linspace(0, 1, basis.dim), np.linspace(0, 1, 3)])


def _gram_inputs(tmp_path):
    """Coefficient-level curves (k = basis dimension), covariates and a gram-weight config."""
    from shapeboost.basis import SplineConfig

    cfg = {
        "geometry": "form",
        "response_basis": {"degree": 2, "n_knots": 5, "cyclic": True},
        "weights": "gram",
        "effects": [{"name": "group", "kind": "categorical", "covariates": ["group"], "df": 2}],
        "boosting": {"eta": 0.5, "iterations": 5, "seed": 1},
    }
    basis = build_response_basis(SplineConfig(2, 5, cyclic=True), np.empty(0))
    rng = np.random.default_rng(2)
    rows = []
    cov_lines = ["curve_id,group"]
    base_coef = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    for i in range(8):
        coefs = base_coef + 0.3 * (rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))
        grid = np.linspace(0, 1, basis.dim)
        rows.append((f"c{i}", grid, coefs))
        cov_lines.append(f"c{i},{i % 2}")
    sbio.write_curves(tmp_path / "coef.csv", rows)
    (tmp_path / "cov.csv").write_text("\n".join(cov_lines) + "\n")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return tmp_path / "coef.csv", tmp_path / "cov.csv", tmp_path / "cfg.json", basis


@pytest.fixture(scope="module")
def fitted(dataset, tmp_path_factory):
    base, curves, covars, truth, config = dataset
    mfile = tmp_path_factory.mktemp("fitted") / "m.json"
    assert main(["fit", str(curves), str(covars), str(config), str(mfile)]) == 0
    return mfile


class TestSingleConfigParse:
    @pytest.mark.parametrize(
        "command, key, flag_value, file_value, out",
        [("cv", "folds", 3, 1, "cv.csv"), ("fit", "eta", 0.5, 2.0, "m.json")],
    )
    def test_flag_fixes_invalid_file_value(self, dataset, tmp_path, command, key, flag_value, file_value, out):
        # flags are written over the file's values before the one parse, so a flag can
        # replace a value the file alone would fail validation with
        base, curves, covars, truth, config = dataset
        written = {}
        for tag, value, flags in (("flag", file_value, [f"--{key}", str(flag_value)]), ("file", flag_value, [])):
            doc = {**CONFIG, "boosting": {**CONFIG["boosting"], key: value}}
            (tmp_path / f"{tag}.json").write_text(json.dumps(doc))
            target = tmp_path / f"{tag}_{out}"
            argv = [command, str(curves), str(covars), str(tmp_path / f"{tag}.json"), str(target), *flags]
            assert main(argv) == 0
            written[tag] = target.read_bytes()
        assert written["flag"] == written["file"]

    def test_invalid_file_value_without_flag_exit2(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        (tmp_path / "c.json").write_text(json.dumps({**CONFIG, "boosting": {**CONFIG["boosting"], "eta": 2.0}}))
        assert main(["fit", str(curves), str(covars), str(tmp_path / "c.json"), str(tmp_path / "m.json")]) == 2


def _as_linear(doc, z_mean):
    """Turn the model's smooth effect on z1 into a consistent linear one with the given ``z_mean``."""
    eff = doc["effects"][1]
    eff["cmap"].update(m_j=1, penalty=[[1.0]], Zc=None, margins=[], z_mean=z_mean)
    eff["cmap"]["spec"].update(kind="linear")
    eff["cmap"]["spec"].pop("covariate_basis", None)
    eff["theta"] = [[0.0] for _ in eff["theta"]]


def _repeat_transform_column(doc):
    """Copy the transform's first column over its second: a wrong tangent basis of the right shape."""
    for row in doc["transform"]:
        row[1] = row[0]


class TestMalformedJsonInputs:
    def _eval(self, dataset, fitted, tmp_path, truth_file):
        base, curves, covars, truth, config = dataset
        return main(["eval", str(fitted), str(curves), str(covars), str(truth_file), str(tmp_path / "rmse.csv")])

    def test_eval_invalid_json_truth_exit2(self, dataset, fitted, tmp_path, capsys):
        bad = tmp_path / "truth.json"
        bad.write_text('{"fields": ')
        assert self._eval(dataset, fitted, tmp_path, bad) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "invalid JSON" in err

    def test_eval_truth_without_fields_exit2(self, dataset, fitted, tmp_path, capsys):
        doc = json.loads(dataset[3].read_text())
        del doc["fields"]
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(doc))
        assert self._eval(dataset, fitted, tmp_path, bad) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'fields'" in err

    def test_predict_model_without_transform_exit2(self, dataset, fitted, tmp_path, capsys):
        base, curves, covars, truth, config = dataset
        doc = json.loads(fitted.read_text())
        del doc["transform"]
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(covars), str(tmp_path / "pred.csv")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'transform'" in err

    def test_model_with_ill_typed_key_exit2(self, dataset, fitted, tmp_path, capsys):
        base, curves, covars, truth, config = dataset
        doc = json.loads(fitted.read_text())
        doc["m_stop"] = "many"
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(covars), str(tmp_path / "pred.csv")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'m_stop'" in err

    def test_predict_model_with_mismatched_transform_exit2(self, dataset, fitted, tmp_path, capsys):
        # a well-typed transform with the wrong number of rows used to crash with a broadcast error
        base, curves, covars, truth, config = dataset
        doc = json.loads(fitted.read_text())
        doc["transform"] = [[1, 0], [0, 1]]
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(covars), str(tmp_path / "pred.csv")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'transform'" in err and "Traceback" not in err

    def test_predict_model_with_mismatched_theta_exit2(self, dataset, fitted, tmp_path, capsys):
        base, curves, covars, truth, config = dataset
        doc = json.loads(fitted.read_text())
        doc["effects"][0]["theta"] = [row[:-1] for row in doc["effects"][0]["theta"]]
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(covars), str(tmp_path / "pred.csv")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'effects'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, mutate",
        [
            ("weight_rule", lambda doc: doc.update(weight_rule="bogus")),
            ("effects", lambda doc: doc["effects"][1]["cmap"].update(Zc=[[1.0]])),
            ("effects", lambda doc: doc["effects"][1]["cmap"].update(Zc=None)),
            ("effects", lambda doc: doc["effects"][1]["cmap"].update(margins=[])),
            ("effects", lambda doc: doc["effects"][1]["cmap"].update(penalty=[[1.0]])),
            ("effects", lambda doc: doc["effects"][0]["cmap"].update(levels=["a"])),
            ("effects", lambda doc: doc["effects"][0]["cmap"].update(levels="ab")),
            ("effects", lambda doc: doc["effects"][0].update({"lambda": "x"})),
            ("effects", lambda doc: doc["effects"][0].update({"lambda": [1.0, float("nan")]})),
            ("effects", lambda doc: doc["effects"][1].update({"lambda": [-1.0, 0.0]})),
            ("effects", lambda doc: doc["effects"][1].update({"lambda": [1.0, 2.0]})),
            ("effects", lambda doc: _as_linear(doc, None)),
            ("effects", lambda doc: _as_linear(doc, float("nan"))),
            ("transform", _repeat_transform_column),
            ("selection_trace", lambda doc: doc.update(selection_trace=[99] * len(doc["selection_trace"]))),
            ("m_stop", lambda doc: doc.update(m_stop=10**6)),
        ],
        ids=["weight_rule", "Zc", "Zc_identity", "margins", "penalty", "levels", "levels_str", "lambda_str", "lambda_nan",
             "lambda_neg", "lambda_unequal", "z_mean_null", "z_mean_nan", "transform_equal_columns", "selection_99",
             "m_stop_huge"],
    )
    def test_inconsistent_model_exit2_in_every_reader(self, dataset, fitted, tmp_path, capsys, key, mutate):
        # a bad weight rule used to exit 3 in predict and a mismatched covariate map to crash (exit 1);
        # a transform with two equal columns, unknown selection indices and an m_stop beyond the
        # risk trace used to load, and predict and factorize exited 0
        base, curves, covars, truth, config = dataset
        doc = json.loads(fitted.read_text())
        mutate(doc)
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        commands = [
            ["predict", str(bad), str(covars), str(tmp_path / "pred.csv")],
            ["factorize", str(bad), str(curves), str(covars), str(tmp_path / "report.json")],
            ["eval", str(bad), str(curves), str(covars), str(truth), str(tmp_path / "rmse.csv")],
        ]
        for argv in commands:
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert str(bad) in err and f"'{key}'" in err, (argv[0], err)

    def test_linear_map_with_finite_z_mean_predicts(self, dataset, fitted, tmp_path):
        # control for the z_mean cases above: the same linear map with a number loads and predicts
        base, curves, covars, truth, config = dataset
        doc = json.loads(fitted.read_text())
        _as_linear(doc, 0.25)
        good = tmp_path / "m.json"
        good.write_text(json.dumps(doc))
        assert main(["predict", str(good), str(covars), str(tmp_path / "pred.csv")]) == 0

    def test_eval_truth_with_mismatched_field_exit2(self, dataset, fitted, tmp_path, capsys):
        # a field of the wrong shape used to crash in the truth evaluation
        doc = json.loads(dataset[3].read_text())
        doc["fields"]["tilt"] = [1, 2, 3]
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(doc))
        assert self._eval(dataset, fitted, tmp_path, bad) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'fields'" in err and "'tilt'" in err and "Traceback" not in err
