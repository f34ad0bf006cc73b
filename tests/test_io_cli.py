import csv
import io
import json

import numpy as np
import pytest

from shapeboost import io as sbio
from shapeboost.cli import main


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


class TestCurveFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        grid = np.array([0.0, 0.3, 0.7, 1.0])
        vals = np.array([1 + 2j, 3 - 1j, 0.5j, -1.0])
        sbio.write_curves(path, [("a", grid, vals)])
        curves, landmark = sbio.read_curves(path)
        assert not landmark
        assert curves[0].id == "a"
        assert np.allclose(curves[0].grid, grid)
        assert np.allclose(curves[0].values, vals)

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

    def test_cv_writes_risk_table(self, dataset, tmp_path):
        base, curves, covars, truth, config = dataset
        out = tmp_path / "cv.csv"
        rc = main(["cv", str(curves), str(covars), str(config), str(out), "--iterations", "6", "--threads", "1"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config=")
        assert "m_stop=" in lines[0]
        assert len(lines) == 2 + 7  # comment, header, iterations 0..6

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
        from shapeboost.basis import SplineConfig, build_response_basis

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
        rc = main(
            ["fit", str(tmp_path / "coef.csv"), str(tmp_path / "cov.csv"), str(tmp_path / "cfg.json"), str(tmp_path / "m.json")]
        )
        assert rc == 0
        model, _ = sbio.load_model(tmp_path / "m.json")
        assert model.coef_mode
        assert model.risk_trace[-1] <= model.risk_trace[0]
