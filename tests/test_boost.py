import dataclasses
import logging
import warnings

import numpy as np
import pytest

from shapeboost.basis import PenaltyBlock, SplineConfig, TangentTransform, build_response_basis, sample_design
from shapeboost.boost import (
    BoostConfig,
    ModelError,
    _cv_lockstep,
    boost_fit,
    cv_early_stop,
    empirical_risk,
    estimate_pole,
    predict_mean,
    predict_means,
    rmse_effect,
    transported_residuals,
)
from shapeboost.effects import EffectError, EffectSpec
from shapeboost.geometry import (
    CurveSample,
    GeometryError,
    GeometryKind,
    PackedSample,
    center,
    empirical_inner,
    empirical_norm,
    trapezoid_weights,
    uniform_weights,
)

from conftest import irregular_grid, smooth_curve, tangent_design, tangent_part

BASIS = SplineConfig(degree=3, n_knots=8, cyclic=True)


def make_dataset(rng, n=24, kind=GeometryKind.FORM, noise=0.04, k_range=(15, 35), common_grid=False):
    """Small synthetic dataset: categorical + smooth effect around a spline pole (with ``common_grid``, one grid)."""
    basis = build_response_basis(BASIS, np.linspace(0, 1, 60))
    dense = np.linspace(0, 1, 100, endpoint=False)
    pole_true = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
    wdir = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    curves, kappa, z = [], [], []
    shared = irregular_grid(rng, int(rng.integers(*k_range))) if common_grid else None
    for i in range(n):
        grid = irregular_grid(rng, int(rng.integers(*k_range))) if shared is None else shared
        k = grid.size
        w = trapezoid_weights(grid)
        B = basis.design(grid)
        p_ev = B @ pole_true
        kap = i % 2
        zz = (i // 2) % 6 - 2.5
        field = (0.1 if kap == 0 else -0.1) * (B @ wdir) + 0.04 * zz * (B @ (1j * wdir))
        ps = PackedSample([w], [f"c{i:03d}"])
        p_rep = ps.pole_rep(p_ev, kind)
        h = tangent_part(ps, field, p_rep, kind)
        eps = tangent_part(ps, noise * (rng.normal(size=k) + 1j * rng.normal(size=k)), p_rep, kind)
        yv = ps.exp(p_rep, h + eps, kind)
        yv = np.exp(1j * rng.normal(0, 0.2)) * yv + 0.3 * (rng.normal() + 1j * rng.normal())
        if kind is GeometryKind.SHAPE:
            yv = yv * rng.uniform(0.7, 1.4)
        curves.append(CurveSample(f"c{i:03d}", grid, yv, w))
        kappa.append(str(kap))
        z.append(zz)
    cov = {"kappa": np.array(kappa), "z": np.array(z, dtype=float)}
    effects = [
        EffectSpec(name="cat", kind="categorical", covariates=("kappa",), df_target=1.0),
        EffectSpec(
            name="sm", kind="smooth", covariates=("z",), covariate_basis=SplineConfig(3, 4),
            df_target=3.0, penalty_covariate="second_diff",
        ),
    ]
    return curves, cov, effects, basis, pole_true


class TestEstimatePole:
    def test_point_mass_sample(self, rng):
        basis = build_response_basis(BASIS, np.linspace(0, 1, 60))
        dense = np.linspace(0, 1, 80, endpoint=False)
        q_coef = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
        for kind in (GeometryKind.FORM, GeometryKind.SHAPE):
            curves = []
            for i in range(6):
                grid = irregular_grid(rng, 30)
                vals = basis.design(grid) @ q_coef
                u = np.exp(1j * rng.uniform(0, 2 * np.pi))
                lam = rng.uniform(0.5, 2.0) if kind is GeometryKind.SHAPE else 1.0
                curves.append(
                    CurveSample(f"q{i}", grid, lam * u * vals + rng.normal() + 1j * rng.normal(), trapezoid_weights(grid))
                )
            cfg = BoostConfig(effects=[], response_basis=BASIS)
            pole = estimate_pole(curves, kind, basis, cfg)
            ps = PackedSample.of(curves)
            _, res = ps.log(ps.pole_rep(sample_design(basis, curves) @ pole.coef, kind), kind, what=None)
            assert np.mean(res) <= 1e-8

    def test_two_curve_midpoint_form(self, rng):
        basis = build_response_basis(BASIS, np.linspace(0, 1, 60))
        dense = np.linspace(0, 1, 90, endpoint=False)
        grid = irregular_grid(rng, 50)
        w = trapezoid_weights(grid)
        c1 = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
        c2 = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
        y1 = CurveSample("a", grid, basis.design(grid) @ c1, w)
        y2 = CurveSample("b", grid, basis.design(grid) @ c2, w)
        cfg = BoostConfig(effects=[], response_basis=BASIS, pole_max_iterations=200)
        pole = estimate_pole([y1, y2], GeometryKind.FORM, basis, cfg)
        p_ev = basis.design(grid) @ pole.coef
        # distances of y1 and y2 to the pole, and of y1 to y2
        ps = PackedSample.of([y1, y2, y1])
        targets = np.concatenate([p_ev, p_ev, basis.design(grid) @ c2])
        _, (d1, d2, d12) = ps.log(ps.pole_rep(targets, GeometryKind.FORM), GeometryKind.FORM, what=None)
        assert d1 == pytest.approx(d2, abs=1e-6)
        assert d1 == pytest.approx(d12 / 2, abs=1e-6)

    def test_first_order_frechet_condition(self, rng):
        # projected mean of transported residuals vanishes at the estimated pole
        from shapeboost.boost import _PoleSample

        for trial in range(4):
            kind = GeometryKind.FORM if trial % 2 == 0 else GeometryKind.SHAPE
            curves, cov, effects, basis, _ = make_dataset(rng, n=10, kind=kind, noise=0.08)
            cfg = BoostConfig(effects=[], response_basis=BASIS, pole_max_iterations=300)
            pole = estimate_pole(curves, kind, basis, cfg)
            ps = _PoleSample.of(curves, pole, kind, coef_mode=False)
            eps, _ = ps.residuals(ps.predictor(np.zeros((len(curves), ps.transform.m))))
            grams = ps.grams()
            mean_coef = np.linalg.solve(grams.sum(axis=0), ps.project(eps).sum(axis=0))
            G0 = grams.mean(axis=0)
            mean_norm = np.sqrt(mean_coef @ G0 @ mean_coef)
            assert mean_norm <= 1e-6 * np.mean(ps.packed.norm(eps))


class TestPoleSetupOnce:
    """The pole's constraints from packed passes, and one design-Gram computation per packed sample."""

    @pytest.mark.parametrize("weights", ["trapezoid", "gram"])
    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_no_dense_design_and_one_gram_stack(self, rng, kind, weights, monkeypatch):
        import shapeboost.basis as sbbasis
        import shapeboost.boost as sbboost
        from shapeboost.geometry import DesignBand

        if weights == "gram":
            curves, cov, basis = _coefficient_dataset(rng, kind)
        else:
            curves, cov, _, basis, _ = make_dataset(rng, n=12, kind=kind)
        _, _, effects, _, _ = make_dataset(np.random.default_rng(0), n=2)
        config = BoostConfig(effects=effects, step_length=0.3, max_iterations=3, response_basis=BASIS,
                             weight_rule=weights)

        def forbidden(*args, **kwargs):
            raise AssertionError("the fit path runs no per-curve constraint loop")

        densified = []  # rows of every densified band: covariate spline designs have one row per curve
        real_dense = DesignBand.dense
        monkeypatch.setattr(DesignBand, "dense", lambda band: densified.append(band.cols.shape[0]) or real_dense(band))
        monkeypatch.setattr(sbbasis, "constraint_matrix", forbidden)
        monkeypatch.setattr(sbboost, "constraint_matrix", forbidden, raising=False)
        computed = []
        real = PackedSample.design_grams
        monkeypatch.setattr(PackedSample, "design_grams", lambda self: computed.append(self) or real(self))
        pole = estimate_pole(curves, kind, basis, config)
        assert len(computed) == 1
        computed.clear()
        _cv_lockstep((curves, cov, config, kind, pole, (np.arange(len(curves)) < 8).astype(int), [0, 1]))
        # once, on the whole sample: each fold's Gram stack is indexed from it, the held-out pass needs none
        assert [packed.n for packed in computed] == [len(curves)]
        assert max(densified, default=0) <= len(curves)  # no response band (sum of k rows) was densified

    def test_degenerate_pole_names_the_curve_in_the_fit(self):
        # degree-1 hats with equal coefficients on [0.2, 0.6]: the pole is constant on curve "flat"'s grid
        basis = build_response_basis(SplineConfig(degree=1, n_knots=4), np.empty(0))
        from shapeboost.basis import PoleCoef

        pole = PoleCoef(coef=np.array([0.0, 1.0, 1.0, 1.0, 2.0, 1j]), basis=basis)
        good, flat = np.linspace(0, 1, 9), np.array([0.25, 0.4, 0.55])
        curves = [CurveSample("ok", good, np.exp(2j * np.pi * good), trapezoid_weights(good)),
                  CurveSample("flat", flat, np.array([1, 2j, 3]), trapezoid_weights(flat))]
        _, _, effects, _, _ = make_dataset(np.random.default_rng(0), n=2)
        config = BoostConfig(effects=effects[:1], max_iterations=1)
        cov = {"kappa": np.array(["0", "1"])}
        for kind in GeometryKind:
            with pytest.raises(GeometryError, match=r"^curve 'flat': pole is degenerate on this grid$"):
                boost_fit(curves, cov, config, pole, kind)

    def test_pole_reports_its_convergence(self, rng, caplog):
        curves, _, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects, response_basis=BASIS)
        with caplog.at_level(logging.INFO, logger="shapeboost"):
            estimate_pole(curves, GeometryKind.FORM, basis, config)
            estimate_pole(curves, GeometryKind.FORM, basis, dataclasses.replace(config, pole_max_iterations=1))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pole:")]
        assert len(lines) == 2
        import re

        full = re.fullmatch(r"pole: (\d+) restarts, (\d+) intercept steps, first-order condition (\S+), budget (.+)",
                            lines[0])
        assert full and int(full[1]) >= 1 and 2 <= int(full[2]) < 100 and full[4] == "not exhausted"
        assert float(full[3]) >= 0
        assert re.fullmatch(r"pole: 1 restarts, 1 intercept steps, first-order condition \S+, budget exhausted",
                            lines[1])

    @staticmethod
    def _pole_with_passes(monkeypatch, caplog, *args):
        """``estimate_pole(*args)``, its number of residual passes and its log line, parsed."""
        import re

        from shapeboost.boost import _PoleSample

        passes = []
        real = _PoleSample.residuals
        monkeypatch.setattr(_PoleSample, "residuals", lambda self, coefs: passes.append(1) or real(self, coefs))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="shapeboost"):
            pole = estimate_pole(*args)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pole:")]
        log = re.fullmatch(r"pole: (\d+) restarts, (\d+) intercept steps, first-order condition (\S+), budget (.+)",
                           line)
        assert log, line
        parsed = {"restarts": int(log[1]), "steps": int(log[2]), "cond": float(log[3]), "budget": log[4]}
        return pole, len(passes), parsed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_pole_runs_one_pass_beyond_its_steps(self, monkeypatch, caplog, seed):
        # the pass at h0 = 0 that meets the condition is the last one: no step is taken after it and discarded
        curves, _, effects, basis, _ = make_dataset(np.random.default_rng(seed), n=12)
        config = BoostConfig(effects=effects, response_basis=BASIS)
        _, passes, log = self._pole_with_passes(monkeypatch, caplog, curves, GeometryKind.FORM, basis, config)
        assert log["cond"] <= 1e-10 and log["budget"] == "not exhausted"
        assert passes == log["steps"] + 1

    def test_zero_budget_measures_the_preliminary_pole(self, monkeypatch, caplog):
        # no intercept step: one residual pass measures the centred preliminary pole, which is returned
        import shapeboost.boost as sbboost

        curves, _, effects, basis, _ = make_dataset(np.random.default_rng(0), n=12)
        config = BoostConfig(effects=effects, response_basis=BASIS, pole_max_iterations=0)
        centred = []
        real = sbboost.center_pole
        monkeypatch.setattr(sbboost, "center_pole", lambda *a: centred.append(real(*a)) or centred[-1])
        pole, passes, log = self._pole_with_passes(monkeypatch, caplog, curves, GeometryKind.FORM, basis, config)
        assert len(centred) == 1 and pole is centred[0]
        assert passes == 1
        assert (log["restarts"], log["steps"], log["budget"]) == (0, 0, "exhausted")
        assert np.isfinite(log["cond"]) and log["cond"] > 1e-10

    @pytest.mark.parametrize("n, seed", [(18, 5), (36, 4)])  # ends by the halving rule, by the budget
    def test_pole_log_reports_the_returned_pole(self, monkeypatch, caplog, n, seed):
        # on sparse forms (triangles) the loop ends after an update of the pole; the logged condition is that
        # of the returned pole, checked here by a residual pass there with a dense least-squares intercept step
        from shapeboost.boost import _PoleSample
        from shapeboost.simulate import SimConfig, gen_dataset, gen_truth

        truth = gen_truth()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sample, _, _ = gen_dataset(truth, SimConfig(n=n, k_bar=3, kind="form", weight_rule="uniform", seed=seed))
        config = BoostConfig(effects=[], response_basis=truth.pole.basis.cfg, response_penalty="ridge")
        pole, passes, log = self._pole_with_passes(monkeypatch, caplog, sample, GeometryKind.FORM, truth.pole.basis,
                                                   config)
        assert passes == log["steps"] + 1  # every pass but the one measuring the returned pole is a step
        assert (log["budget"] == "exhausted") == (n == 36)
        logged = log["cond"]
        ps = _PoleSample.of(sample, pole, GeometryKind.FORM, coef_mode=False)
        eps, _ = ps.residuals(ps.predictor(np.zeros((len(sample), ps.transform.m))))
        G0 = ps.grams().mean(axis=0)
        step = np.linalg.lstsq(G0, ps.project(eps).mean(axis=0), rcond=None)[0]
        ref = np.sqrt(step @ G0 @ step) / np.mean(ps.packed.norm(eps))
        assert ref > 1e-4  # far from stationary
        assert logged == pytest.approx(ref, rel=5e-3)  # the log prints three digits


class TestBoostFit:
    def test_model_rejects_unknown_weight_rule(self, rng):
        # a fitted model checks its weight rule as BoostConfig does
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects[:1], step_length=0.5, max_iterations=2, response_basis=BASIS)
        model = boost_fit(curves, cov, config, estimate_pole(curves, GeometryKind.FORM, basis, config), GeometryKind.FORM)
        with pytest.raises(EffectError, match="unknown weight rule 'bogus'"):
            dataclasses.replace(model, weight_rule="bogus")

    def test_model_rejects_inconsistent_fields(self, rng):
        # a model built through the library is checked as a loaded one is
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects[:2], step_length=0.5, max_iterations=2, response_basis=BASIS)
        model = boost_fit(curves, cov, config, estimate_pole(curves, GeometryKind.FORM, basis, config), GeometryKind.FORM)
        Z = model.transform.Z.copy()
        Z[:, 1] = Z[:, 0]
        cases = [
            ("transform", dict(transform=TangentTransform(Z))),
            ("selection_trace", dict(selection_trace=np.array([0, 2]))),
            ("selection_trace", dict(selection_trace=np.array([0, 1, 1]))),
            ("m_stop", dict(m_stop=3)),
            ("m_stop", dict(m_stop=-1)),
        ]
        for key, change in cases:
            with pytest.raises(ModelError) as info:
                dataclasses.replace(model, **change)
            assert info.value.key == key
        dataclasses.replace(model, m_stop=0)

    def test_single_learner_always_selected(self, rng):
        curves, cov, effects, basis, pole_true = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects[:1], step_length=0.5, max_iterations=8, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        assert np.all(model.selection_trace == 0)

    def test_zero_iterations_risk_is_pole_distance(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects, step_length=0.5, max_iterations=0, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        assert model.risk_trace.size == 1
        ps = PackedSample.of(curves)
        p_rep = ps.pole_rep(sample_design(basis, curves) @ pole.coef, GeometryKind.FORM)
        _, d = ps.log(p_rep, GeometryKind.FORM, what=None)
        direct = np.mean(d**2)
        assert model.risk_trace[0] == pytest.approx(direct, rel=1e-10)

    def test_selection_matches_exhaustive_oracle(self, rng):
        from shapeboost.boost import _FitContext, _PoleSample
        from shapeboost.effects import assemble_psi_vector, unvec

        curves, cov, effects, basis, _ = make_dataset(rng, n=14)
        config = BoostConfig(effects=effects, step_length=0.3, max_iterations=12, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)

        # independent bookkeeping: replay the iterations, exhaustively refitting
        ps = _PoleSample.of(curves, pole, GeometryKind.FORM, coef_mode=False)
        ctx = _FitContext.of(ps, cov, config)
        thetas = [np.zeros((ctx.m, cm.m_j)) for cm in ctx.cmaps]
        for it in range(config.max_iterations):
            projs, _ = ps.residual_pass(ctx.predictor_coefs(thetas))
            sse = []
            cands = []
            for j, learner in enumerate(ctx.learners):
                psi = assemble_psi_vector(ctx.cov_designs[j], projs)
                v = learner.solve(psi)
                # full SSE via explicit residual evaluation
                theta_j = unvec(v, ctx.m, ctx.cmaps[j].m_j)
                eps, _ = ps.residuals(ps.predictor(ctx.predictor_coefs(thetas)))
                fitv = ps.predictor(ctx.cov_designs[j] @ theta_j.T)
                total = float(np.sum(ps.packed.norm(eps - fitv) ** 2))
                sse.append(total)
                cands.append(theta_j)
            j_star = int(np.argmin(sse))
            assert j_star == model.selection_trace[it]
            thetas[j_star] = thetas[j_star] + config.step_length * cands[j_star]

    def test_singular_learner_falls_back_to_pseudo_inverse(self, rng):
        # an unpenalized smooth effect on 3 distinct covariate values: its system is singular
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        cov = dict(cov, z=np.array([float(i % 3) for i in range(12)]))
        flat = EffectSpec(name="flat", kind="smooth", covariates=("z",), covariate_basis=SplineConfig(3, 4),
                          df_target=100.0, penalty_covariate="none", penalty_tangent="none")
        config = BoostConfig(effects=[effects[0], flat], step_length=0.3, max_iterations=6, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        fallbacks = [str(w.message) for w in caught if "pseudo-inverse" in str(w.message)]
        assert fallbacks == ["effect 'flat': singular PLS system, using pseudo-inverse"]
        assert np.all(np.isfinite(model.risk_trace)) and model.risk_trace[-1] < model.risk_trace[0]

    def test_eta_linearity_single_step(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, BoostConfig(effects=[], response_basis=BASIS))
        # lambda = 0: df target at the rank ceiling turns the penalty off
        eff = [EffectSpec(name="cat", kind="categorical", covariates=("kappa",), df_target=1e9)]
        models = {}
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for eta in (0.1, 1.0):
                config = BoostConfig(effects=eff, step_length=eta, max_iterations=1, response_basis=BASIS)
                models[eta] = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        t1 = models[0.1].effects[0].theta
        t10 = models[1.0].effects[0].theta
        assert np.allclose(10 * t1, t10, rtol=1e-10, atol=1e-12)

    def test_unselected_effects_stay_zero(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=10, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        for j, eff in enumerate(model.effects):
            if j not in set(model.selection_trace.tolist()):
                assert not eff.theta.any()

    def test_risk_decreases(self, rng):
        for kind in (GeometryKind.FORM, GeometryKind.SHAPE):
            curves, cov, effects, basis, _ = make_dataset(rng, n=16, kind=kind)
            config = BoostConfig(effects=effects, step_length=0.4, max_iterations=25, response_basis=BASIS)
            pole = estimate_pole(curves, kind, basis, config)
            model = boost_fit(curves, cov, config, pole, kind)
            assert model.risk_trace[-1] < model.risk_trace[0]

    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_curve_order_does_not_change_fit(self, rng, kind):
        # the fit depends on the (curve, covariate) pairs, not on their order: at a fixed pole
        # the predicted means agree pointwise, and with the pole re-estimated on the permuted
        # sample they agree as shapes or forms (the pole's frame may differ)
        curves, cov, effects, basis, _ = make_dataset(rng, n=14, kind=kind)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=8, response_basis=BASIS)
        pole = estimate_pole(curves, kind, basis, config)
        perm = rng.permutation(len(curves))
        shuffled, shuffled_cov = [curves[i] for i in perm], {k: v[perm] for k, v in cov.items()}
        model = boost_fit(curves, cov, config, pole, kind)
        permuted = boost_fit(shuffled, shuffled_cov, config, pole, kind)
        repoled = boost_fit(shuffled, shuffled_cov, config, estimate_pole(shuffled, kind, basis, config), kind)
        for other in (permuted, repoled):
            assert other.risk_trace == pytest.approx(model.risk_trace, rel=1e-9)
            assert np.array_equal(other.selection_trace, model.selection_trace)
        grids = [c.grid for c in curves]
        means = predict_means(model, cov, grids)
        for a, b in zip(means, predict_means(permuted, cov, grids)):
            assert np.abs(b - a).max() <= 1e-9 * np.abs(a).max()
        repoled_means = predict_means(repoled, cov, grids)
        ps = PackedSample.of([CurveSample(c.id, c.grid, b, c.weights) for c, b in zip(curves, repoled_means)])
        a = np.concatenate(means)
        scale = 1.0 if kind is GeometryKind.SHAPE else ps.norm(ps.center(a))
        _, d = ps.log(ps.pole_rep(a, kind), kind, what=None)
        assert np.all(d <= 1e-9 * scale)

    def test_transported_residuals_are_tangent(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=5, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        res = transported_residuals(model, curves, cov)
        for te in res.residuals:
            te.validate(1e-8)


def dense_system(Psi, P_cov, P_tan, lam):
    """Dense Psi + lam (S + delta I) with S = P_cov (x) I + I (x) P_tan and the ridge delta of a singular S."""
    S = np.kron(P_cov, np.eye(P_tan.shape[0])) + np.kron(np.eye(P_cov.shape[0]), P_tan)
    scale = float(np.abs(S).max())
    if scale == 0.0:
        return Psi.copy()
    if np.linalg.eigvalsh(P_cov).min() + np.linalg.eigvalsh(P_tan).min() < 1e-10 * scale:
        S = S + 1e-8 * scale * np.eye(S.shape[0])
    return Psi + lam * S


def tangent_penalties(ctx, ps, config):
    """Each learner's tangent penalty P_perp, built as the fit builds it on the pole sample ``ps``."""
    kinds = [config.response_penalty if cm.spec.penalty_tangent == "inherit" else cm.spec.penalty_tangent
             for cm in ctx.cmaps]
    return [PenaltyBlock.build(ps.pole.basis, ctx.transform, kind).P_perp for kind in kinds]


class TestLearnerSpectrum:
    """The learners of a fit: one eigendecomposition each, shared by calibration, solves and selection."""

    @staticmethod
    def _inputs(rng, kind, extra=()):
        """Pole sample, covariates and config of a small fit with the extra effects."""
        from shapeboost.boost import _PoleSample

        curves, cov, effects, basis, _ = make_dataset(rng, n=14, kind=kind)
        cov = dict(cov, w3=np.array([float(i % 3) for i in range(len(curves))]))
        config = BoostConfig(effects=[*effects, *extra], step_length=0.3, max_iterations=3, response_basis=BASIS)
        pole = estimate_pole(curves, kind, basis, config)
        return _PoleSample.of(curves, pole, kind, coef_mode=False), cov, config

    @staticmethod
    def _context(inputs):
        """The fit's learners and the warnings their construction raised."""
        from shapeboost.boost import _FitContext

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return _FitContext.of(*inputs), [str(w.message) for w in caught]

    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_objective_equals_dense_sse_change(self, rng, kind):
        from shapeboost.effects import PlsLearner, assemble_psi_matrix, assemble_psi_vector

        extra = [
            EffectSpec(name="lin", kind="linear", covariates=("z",), df_target=1.5),
            # df target above the rank: lambda clamps to 0
            EffectSpec(name="clamp", kind="categorical", covariates=("kappa",), df_target=1e9),
            # unpenalized on 3 distinct values: a singular system, the least-norm pseudo-inverse
            EffectSpec(name="flat", kind="smooth", covariates=("w3",), covariate_basis=SplineConfig(3, 4),
                       df_target=100.0, penalty_covariate="none", penalty_tangent="none"),
            # penalized and singular at lambda = 0
            EffectSpec(name="flat2", kind="smooth", covariates=("w3",), covariate_basis=SplineConfig(3, 4),
                       df_target=100.0, penalty_covariate="second_diff"),
        ]
        inputs = self._inputs(rng, kind, extra)
        ctx, caught = self._context(inputs)
        assert [lr.lam for lr in ctx.learners[3:]] == [0.0, 0.0, 0.0]
        singular = [msg for msg in caught if "singular PLS system" in msg]
        assert singular == [f"effect {name!r}: singular PLS system, using pseudo-inverse" for name in ("flat", "flat2")]
        grams = inputs[0].grams()
        projs, _ = inputs[0].residual_pass(ctx.predictor_coefs([np.zeros((ctx.m, cm.m_j)) for cm in ctx.cmaps]))
        for j, (learner, P_tan) in enumerate(zip(ctx.learners, tangent_penalties(ctx, inputs[0], inputs[2]))):
            Psi = assemble_psi_matrix(ctx.cov_designs[j], grams)
            psi = assemble_psi_vector(ctx.cov_designs[j], projs)
            P_cov, lam = ctx.cmaps[j].penalty, learner.lam
            pairs = [(learner, dense_system(Psi, P_cov, P_tan, lam))]
            # unequal weights of the two penalty directions ride in the factors, under one calibrated scale
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                unequal = PlsLearner.calibrated(Psi, 0.5 * P_cov, 2.0 * P_tan, ctx.cmaps[j].spec.df_target)
            pairs.append((unequal, dense_system(Psi, 0.5 * P_cov, 2.0 * P_tan, unequal.lam)))
            for lr, A in pairs:
                v = np.linalg.lstsq(A, psi, rcond=None)[0]
                ref = float(-2.0 * v @ psi + v @ Psi @ v)
                assert lr.objective(lr.coords(psi)) == pytest.approx(ref, rel=1e-10), (j, lr.lam)

    def test_unpenalized_effect_stores_no_lambda(self, rng):
        # both penalties "none": S = 0, so no scale can lower the df and none is stored
        curves, cov, effects, basis, _ = make_dataset(rng, n=14)
        lin = EffectSpec(name="lin", kind="linear", covariates=("z",), df_target=0.5,
                         penalty_covariate="none", penalty_tangent="none")
        config = BoostConfig(effects=[effects[0], lin], step_length=0.3, max_iterations=3, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        with pytest.warns(UserWarning, match="df target 0.5 unreachable without a penalty"):
            model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        assert model.effects[1].lam == 0.0

    def test_singular_penalty_solved_with_its_ridge(self, rng):
        # no tangent penalty on a second-difference smooth: S = P_cov (x) I is singular, so the
        # learner solves Psi + lam (S + delta I), the system its df was calibrated on
        from shapeboost.effects import assemble_psi_matrix

        targets = (4.0, 20.0, 60.0)
        extra = [EffectSpec(name=f"ridged{i}", kind="smooth", covariates=("z",), covariate_basis=SplineConfig(3, 4),
                            df_target=t, penalty_covariate="second_diff", penalty_tangent="none")
                 for i, t in enumerate(targets)]
        inputs = self._inputs(rng, GeometryKind.FORM, extra)
        ctx, _ = self._context(inputs)
        grams = inputs[0].grams()
        # the basis of S + delta I has condition up to 1/delta = 1e8, which scales the solve's rounding
        tol = 10 * np.finfo(float).eps / 1e-8
        for learner, design, cmap, P_tan, target in zip(ctx.learners[2:], ctx.cov_designs[2:], ctx.cmaps[2:],
                                                        tangent_penalties(ctx, inputs[0], inputs[2])[2:], targets):
            P_cov = cmap.penalty
            S = np.kron(P_cov, np.eye(P_tan.shape[0])) + np.kron(np.eye(P_cov.shape[0]), P_tan)
            scale = float(np.abs(0.5 * (S + S.T)).max())
            assert np.linalg.eigvalsh(P_cov).min() + np.linalg.eigvalsh(P_tan).min() < 1e-10 * scale
            Psi = assemble_psi_matrix(design, grams)
            rhs = rng.normal(size=(Psi.shape[0], 2))
            ref = np.linalg.solve(dense_system(Psi, P_cov, P_tan, learner.lam), rhs)
            assert np.linalg.norm(learner.solve(rhs) - ref) <= tol * np.linalg.norm(ref), target
            # the learner's own df is the calibrated one
            assert abs(np.trace(learner.solve(Psi)) - target) <= 1e-4 + 1e-6, target

    def test_one_eigendecomposition_per_learner(self, rng, monkeypatch):
        extra = [EffectSpec(name="lin", kind="linear", covariates=("z",), df_target=1.5),
                 EffectSpec(name="ridged", kind="smooth", covariates=("z",), covariate_basis=SplineConfig(3, 4),
                            df_target=2.5, penalty_covariate="second_diff", penalty_tangent="none")]
        inputs = self._inputs(rng, GeometryKind.FORM, extra)
        calls = _linalg_spy(monkeypatch)
        ctx, _ = self._context(inputs)
        tangent = {kind: PenaltyBlock.build(inputs[0].pole.basis, ctx.transform, kind).P_perp
                   for kind in ("second_diff", "none")}
        covariate = {id(cm.penalty) for cm in ctx.cmaps}
        on_tangent = [kind for _, a in calls for kind, P in tangent.items() if np.array_equal(a, P)]
        assert [name for name, _ in calls if name != "eigh"] == []
        systems = [a.shape for name, a in calls if name == "eigh" and id(a) not in covariate
                   and not any(np.array_equal(a, P) for P in tangent.values())]
        assert systems == [(ctx.m * cm.m_j,) * 2 for cm in ctx.cmaps]
        # the tangent penalty's eigenpairs are computed once per kind: "second_diff" and "none"
        assert sorted(on_tangent) == ["none", "second_diff"]


def _linalg_spy(monkeypatch, names=("eigh", "eigvalsh", "cholesky", "inv", "pinv")):
    """Record (name, argument) of every call to the named ``np.linalg`` routines."""
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, a))  # the reference keeps each argument's id unique
            return real(a, *args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, spy(name))
    return calls


class TestStructuredLearners:
    """Curves that share one tangent Gram G and a tangent penalty q I: learners from eigh(G) and m_j-sized factors."""

    EXTRA = (
        EffectSpec(name="lin", kind="linear", covariates=("z",), df_target=1.5),
        EffectSpec(name="ridged", kind="smooth", covariates=("z",), covariate_basis=SplineConfig(3, 4),
                   df_target=2.5, penalty_covariate="second_diff", penalty_tangent="none"),
    )

    @classmethod
    def _coef_inputs(cls, rng, response_penalty):
        from shapeboost.boost import _PoleSample

        curves, cov, basis = _coefficient_dataset(rng, GeometryKind.FORM)
        _, _, effects, _, _ = make_dataset(np.random.default_rng(0), n=2)
        config = BoostConfig(effects=[*effects, *cls.EXTRA], step_length=0.3, max_iterations=3,
                             response_basis=BASIS, response_penalty=response_penalty, weight_rule="gram")
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        return _PoleSample.of(curves, pole, GeometryKind.FORM, coef_mode=True), cov, config

    def test_coefficient_mode_ridge_builds_from_factors(self, rng, monkeypatch):
        import shapeboost.boost as sbboost
        import shapeboost.effects as sbeffects
        from shapeboost.boost import _FitContext

        inputs = self._coef_inputs(rng, "ridge")

        def forbidden(*args, **kwargs):
            raise AssertionError("a structured learner assembles or rotates no Psi")

        monkeypatch.setattr(sbboost, "assemble_psi_matrix", forbidden)
        monkeypatch.setattr(sbeffects, "_kron_rotate", forbidden)
        calls = _linalg_spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ctx = _FitContext.of(*inputs)
        bound = max(ctx.m, *(cm.m_j for cm in ctx.cmaps))
        assert {name for name, _ in calls} == {"eigh"}
        assert max(a.shape[0] for _, a in calls) <= bound
        for lr, cm in zip(ctx.learners, ctx.cmaps):
            arrays = [a for a in vars(lr).values() if isinstance(a, np.ndarray)]
            assert lr._F is not None and len(arrays) == 4, cm.spec.name  # T = L (x) F held as its two factors
            assert all(a.ndim == 1 or max(a.shape) <= bound for a in arrays), cm.spec.name

    def test_coefficient_mode_second_diff_stays_dense(self, rng, monkeypatch):
        from shapeboost.boost import _FitContext

        inputs = self._coef_inputs(rng, "second_diff")
        calls = _linalg_spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ctx = _FitContext.of(*inputs)
        # one Psi-sized eigh per inherited second-difference learner; "ridged", the last effect, keeps its
        # own tangent penalty "none" and takes the structured path: eigh(G) and an m_j-sized eigh
        P_tan = PenaltyBlock.build(inputs[0].pole.basis, ctx.transform, "second_diff").P_perp
        covariate = {id(cm.penalty) for cm in ctx.cmaps}
        assert sum(np.array_equal(a, P_tan) for _, a in calls) == 1
        systems = [a.shape for name, a in calls if id(a) not in covariate and not np.array_equal(a, P_tan)]
        assert systems == [(ctx.m * cm.m_j,) * 2 for cm in ctx.cmaps[:-1]] + [(ctx.m,) * 2, (ctx.cmaps[-1].m_j,) * 2]

    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_common_grid_matches_dense_path(self, rng, kind, monkeypatch):
        import shapeboost.boost as sbboost

        curves, cov, effects, basis, _ = make_dataset(rng, n=14, kind=kind, common_grid=True)
        config = BoostConfig(effects=[*effects, *self.EXTRA], step_length=0.3, max_iterations=12,
                             response_basis=BASIS, response_penalty="ridge")
        pole = estimate_pole(curves, kind, basis, config)
        assembled = []
        real = sbboost.assemble_psi_matrix
        monkeypatch.setattr(sbboost, "assemble_psi_matrix", lambda *a: assembled.append(1) or real(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            structured = boost_fit(curves, cov, config, pole, kind)
            assert assembled == []  # the trapezoid Grams of one shared grid are equal bit for bit
            monkeypatch.setattr(sbboost, "_shared_gram", lambda grams: None)
            dense = boost_fit(curves, cov, config, pole, kind)
        assert len(assembled) == len(config.effects)
        np.testing.assert_allclose(structured.risk_trace, dense.risk_trace, rtol=1e-12, atol=0.0)
        assert np.array_equal(structured.selection_trace, dense.selection_trace)
        assert len(set(structured.selection_trace.tolist())) > 1


class TestCrossValidation:
    def test_deterministic_and_partition(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=16)
        config = BoostConfig(
            effects=effects, step_length=0.4, max_iterations=8, cv_folds=4, rng_seed=7, response_basis=BASIS
        )
        r1 = cv_early_stop(curves, cov, config, GeometryKind.FORM)
        r2 = cv_early_stop(curves, cov, config, GeometryKind.FORM)
        assert r1.m_stop == r2.m_stop
        assert np.array_equal(r1.fold_assignment, r2.fold_assignment)
        assert np.array_equal(r1.cv_risk, r2.cv_risk)
        counts = np.bincount(r1.fold_assignment, minlength=4)
        assert counts.sum() == 16 and counts.min() >= 2

    def test_small_fold_rejected(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(
            effects=effects, step_length=0.4, max_iterations=3, cv_folds=9, rng_seed=1, response_basis=BASIS
        )
        from shapeboost.effects import EffectError

        with pytest.raises(EffectError):
            cv_early_stop(curves, cov, config, GeometryKind.FORM)

    def test_noiseless_cv_curve(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=16, noise=0.0)
        config = BoostConfig(
            effects=effects, step_length=0.5, max_iterations=20, cv_folds=4, rng_seed=3, response_basis=BASIS
        )
        res = cv_early_stop(curves, cov, config, GeometryKind.FORM)
        # noiseless truth: risk curve decreases early, stop is interior or at the boundary
        assert 0 < res.m_stop <= 20
        assert res.cv_risk[3] < res.cv_risk[0]

    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fold_risks_are_prefix_fit_risks(self, kind, seed):
        # each fold's held-out risk after t iterations is that of the training fit stopped at t,
        # and the stopped fit is a prefix of the full one, bit for bit
        curves, cov, effects, basis, _ = make_dataset(np.random.default_rng(seed), n=16, kind=kind)
        config = BoostConfig(
            effects=effects, step_length=0.4, max_iterations=6, cv_folds=4, rng_seed=seed, response_basis=BASIS
        )
        pole = estimate_pole(curves, kind, basis, config)
        res = cv_early_stop(curves, cov, config, kind, pole=pole)
        for f in range(config.cv_folds):
            train, test = np.flatnonzero(res.fold_assignment != f), np.flatnonzero(res.fold_assignment == f)
            train_cov, test_cov = ({k: v[idx] for k, v in cov.items()} for idx in (train, test))
            train_curves, test_curves = [curves[i] for i in train], [curves[i] for i in test]
            full = boost_fit(train_curves, train_cov, config, pole, kind)
            for t in range(config.max_iterations + 1):
                stopped = boost_fit(train_curves, train_cov, dataclasses.replace(config, max_iterations=t), pole, kind)
                assert res.fold_risks[f, t] == empirical_risk(stopped, test_curves, test_cov)
                assert np.array_equal(stopped.risk_trace, full.risk_trace[: t + 1])
                assert np.array_equal(stopped.selection_trace, full.selection_trace[:t])

    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_one_training_and_one_held_out_pass_per_iteration(self, kind, monkeypatch):
        # the folds advance together: per iteration one residual pass over the stacked training sets and one
        # distance pass over the whole sample; the design Grams are computed once besides the pole's
        from shapeboost.boost import _PoleSample

        curves, cov, effects, _, _ = make_dataset(np.random.default_rng(3), n=17, kind=kind)
        config = BoostConfig(
            effects=effects, step_length=0.4, max_iterations=7, cv_folds=4, rng_seed=1, response_basis=BASIS
        )
        seen = {"train": [], "held_out": [], "grams": []}
        residuals, distances, grams = _PoleSample.residuals, _PoleSample.distances, PackedSample.design_grams
        monkeypatch.setattr(_PoleSample, "residuals",
                            lambda self, h: seen["train"].append(self.packed.n) or residuals(self, h))
        monkeypatch.setattr(_PoleSample, "distances",
                            lambda self, h: seen["held_out"].append(self.packed.n) or distances(self, h))
        monkeypatch.setattr(PackedSample, "design_grams", lambda self: seen["grams"].append(self.n) or grams(self))
        cv_early_stop(curves, cov, config, kind)
        n, passes = len(curves), config.max_iterations + 1
        pole_passes = seen["train"].count(n)  # the pole's residual passes, on the sample itself
        assert pole_passes >= 1
        assert seen["train"] == [n] * pole_passes + [(config.cv_folds - 1) * n] * passes
        assert seen["held_out"] == [n] * passes
        assert seen["grams"] == [n, n]  # the pole's and the folds'

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_similarity_transforms_do_not_change_cv(self, seed):
        # per-curve rotation and translation (forms), and rescaling too (shapes), act on the quotient only
        rng = np.random.default_rng(100 + seed)
        for kind in GeometryKind:
            curves, cov, effects, _, _ = make_dataset(np.random.default_rng(seed), n=16, kind=kind)
            config = BoostConfig(
                effects=effects, step_length=0.4, max_iterations=8, cv_folds=4, rng_seed=seed, response_basis=BASIS
            )
            moved = []
            for c in curves:
                scale = rng.uniform(0.5, 2.0) if kind is GeometryKind.SHAPE else 1.0
                shift = complex(*rng.normal(size=2))
                moved.append(CurveSample(c.id, c.grid, scale * np.exp(1j * rng.uniform(0, 2 * np.pi)) * c.values
                                         + shift, c.weights))
            ref = cv_early_stop(curves, cov, config, kind)
            res = cv_early_stop(moved, cov, config, kind)
            np.testing.assert_allclose(res.fold_risks, ref.fold_risks, rtol=1e-9, atol=0.0)
            assert res.m_stop == ref.m_stop
            if kind is GeometryKind.FORM:
                # negative control: the form space keeps scale
                scaled = [CurveSample(c.id, c.grid, 1.5 * c.values, c.weights) for c in curves]
                risks = cv_early_stop(scaled, cov, config, kind).fold_risks
                assert not np.allclose(risks, ref.fold_risks, rtol=1e-3, atol=0.0)


class TestPrediction:
    def test_zero_coefficients_give_pole(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=0, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        grid = np.linspace(0, 1, 44)
        mu = predict_mean(model, {"kappa": "0", "z": 0.0}, grid)
        from shapeboost.geometry import center

        p = center(basis.design(grid) @ pole.coef, trapezoid_weights(grid))
        assert np.allclose(mu, p, atol=1e-12)

    def test_in_sample_reproduction(self, rng):
        from shapeboost.boost import _PoleSample

        for kind in (GeometryKind.FORM, GeometryKind.SHAPE):
            curves, cov, effects, basis, _ = make_dataset(rng, n=12, kind=kind)
            config = BoostConfig(effects=effects, step_length=0.4, max_iterations=6, response_basis=BASIS)
            pole = estimate_pole(curves, kind, basis, config)
            model = boost_fit(curves, cov, config, pole, kind)
            i = 5
            x = {"kappa": cov["kappa"][i], "z": cov["z"][i]}
            mu = predict_mean(model, x, curves[i].grid, curves[i].weights)
            ps = _PoleSample.of(curves, pole, kind, False, model.transform)
            mu_insample = ps.means(ps.predictor(model.predictor_coefs(cov, len(curves))))[ps.packed.seg == i]
            assert np.abs(mu - mu_insample).max() <= 1e-12

    def test_shape_prediction_unit_norm(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12, kind=GeometryKind.SHAPE)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=6, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.SHAPE, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.SHAPE)
        grid = np.linspace(0, 1, 70)
        mu = predict_mean(model, {"kappa": "1", "z": 1.5}, grid)
        assert empirical_norm(mu, trapezoid_weights(grid)) == pytest.approx(1.0, abs=1e-10)

    def test_model_predicts_with_its_own_weight_rule(self, rng):
        kind = GeometryKind.SHAPE
        curves, cov, effects, basis, _ = make_dataset(rng, n=12, kind=kind)
        curves = [CurveSample(c.id, c.grid, c.values, uniform_weights(c.k)) for c in curves]
        config = BoostConfig(
            effects=effects, step_length=0.4, max_iterations=6, response_basis=BASIS, weight_rule="uniform"
        )
        model = boost_fit(curves, cov, config, estimate_pole(curves, kind, basis, config), kind)
        assert model.weight_rule == "uniform" and not model.coef_mode
        grids = [c.grid for c in curves]
        own = predict_means(model, cov, grids, [c.weights for c in curves])
        default = predict_means(model, cov, grids)
        assert all(np.array_equal(a, b) for a, b in zip(own, default))

    def test_unknown_weight_rule_rejected(self):
        from shapeboost.effects import EffectError

        with pytest.raises(EffectError, match="bogus"):
            BoostConfig(effects=[], weight_rule="bogus")

    def test_unseen_level_rejected(self, rng):
        from shapeboost.effects import EffectError

        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=2, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        with pytest.raises(EffectError):
            predict_mean(model, {"kappa": "7", "z": 0.0}, np.linspace(0, 1, 10))


class TestRiskAndRmse:
    def test_exact_effect_gives_zero(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=6, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        # use the fitted effect itself as "truth": rmse must vanish without pole transport
        eff = model.effects[0]
        fitted, totals = [], []
        coefs = model.predictor_coefs(cov, len(curves))
        for i, c in enumerate(curves):
            x = {"kappa": cov["kappa"][i], "z": cov["z"][i]}
            D = tangent_design(c.grid, model.transform, basis)
            fitted.append(D @ (eff.theta @ eff.cmap.row(x)))
            totals.append(D @ coefs[i])
        r = rmse_effect(model, curves, cov, "cat", fitted, totals)
        assert r <= 1e-16

    def test_zero_estimate_single_effect_gives_one(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects[:1], step_length=0.4, max_iterations=0, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        truth = [tangent_design(c.grid, model.transform, basis) @ (0.2 * np.ones(model.transform.m)) for c in curves]
        r = rmse_effect(model, curves, cov, "cat", truth, truth)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_empirical_risk_matches_trace(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=5, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        assert empirical_risk(model, curves, cov) == pytest.approx(model.risk_trace[-1], rel=1e-10)


def _coefficient_dataset(rng, kind, n=14):
    """Coefficient-level curves (k = basis dim, Gram weights) for the full-weight branch."""
    basis = build_response_basis(BASIS, np.empty(0))
    grid = np.linspace(0, 1, basis.dim)
    base = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    wdir = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    curves, kappa, z = [], [], []
    for i in range(n):
        zz = (i // 2) % 6 - 2.5
        vals = base + (0.2 if i % 2 else -0.2) * wdir + 0.05 * zz * 1j * wdir
        vals = vals + 0.05 * (rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))
        vals = np.exp(1j * rng.normal(0, 0.2)) * vals * (rng.uniform(0.7, 1.4) if kind is GeometryKind.SHAPE else 1.0)
        curves.append(CurveSample(f"g{i:03d}", grid, vals, basis.gram))
        kappa.append(str(i % 2))
        z.append(zz)
    return curves, {"kappa": np.array(kappa), "z": np.array(z, dtype=float)}, basis


def _loop_reference(model, curve, coef):
    """Transported residual of one curve by scalar inner products, as the per-curve loop computed it."""
    w = curve.weights
    B = np.eye(model.basis.dim) if model.coef_mode else model.basis.design(curve.grid)
    p = center(B @ model.pole.coef, w)
    if model.kind is GeometryKind.SHAPE:
        p = p / empirical_norm(p, w)
    h = B @ model.transform.field_coef(coef)
    if model.kind is GeometryKind.FORM:
        mu = center(p + h, w)
    else:
        nh = empirical_norm(h, w)
        mu = center(np.cos(nh) * p + np.sin(nh) / nh * h, w)
        mu = mu / empirical_norm(mu, w)
    y_c = center(curve.values, w)
    ip = empirical_inner(y_c, mu, w)
    rep = ip / abs(ip) * y_c
    if model.kind is GeometryKind.FORM:
        eps = rep - mu
        mu_hat, p_hat = mu / empirical_norm(mu, w), p / empirical_norm(p, w)
        denom = 1.0 + empirical_inner(mu_hat, p_hat, w).real
        return eps - 1j * empirical_inner(p_hat, eps, w).imag * (mu_hat + p_hat) / denom
    rep = rep / empirical_norm(y_c, w)
    c0 = empirical_inner(mu, rep, w)
    resid = rep - c0 * mu
    rn = empirical_norm(resid, w)
    eps = resid * (np.arctan2(min(rn, 1.0), min(abs(c0), 1.0)) / rn)
    denom = 1.0 + empirical_inner(mu, p, w).real
    return eps - empirical_inner(p, eps, w) * (mu + p) / denom


class TestPackedKernel:
    @pytest.mark.parametrize("weights", ["trapezoid", "uniform", "gram"])
    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_residual_pass_matches_per_curve_reference(self, rng, kind, weights):
        from shapeboost.geometry import PackedSample, log_map, parallel_transport

        if weights == "gram":
            curves, cov, basis = _coefficient_dataset(rng, kind)
        else:
            curves, cov, _, basis, _ = make_dataset(rng, n=14, kind=kind, k_range=(5, 40))
            if weights == "uniform":
                curves = [CurveSample(c.id, c.grid, c.values, uniform_weights(c.k)) for c in curves]
        _, _, effects, _, _ = make_dataset(np.random.default_rng(0), n=2)
        config = BoostConfig(
            effects=effects, step_length=0.5, max_iterations=6, response_basis=BASIS, weight_rule=weights
        )
        pole = estimate_pole(curves, kind, basis, config)
        model = boost_fit(curves, cov, config, pole, kind)
        packed = transported_residuals(model, curves, cov).residuals
        assert len({c.k for c in curves}) > 1 or weights == "gram"
        coefs = model.predictor_coefs(cov, len(curves))
        for i, curve in enumerate(curves):
            x = {name: cov[name][i] for name in cov}
            w = curve.weights
            mu = predict_mean(model, x, curve.grid, w)
            local = log_map(mu, curve, kind)
            B = np.eye(basis.dim) if model.coef_mode else basis.design(curve.grid)
            p = PackedSample([w], ["pole"]).pole_rep(B @ pole.coef, kind)
            ref = parallel_transport(local.pole_evals, p, local, kind, check=False).values
            loop = _loop_reference(model, curve, coefs[i])
            scale = empirical_norm(packed[i].values, w)
            assert scale > 0
            assert empirical_norm(packed[i].values - ref, w) <= 1e-12 * scale
            assert empirical_norm(packed[i].values - loop, w) <= 1e-12 * scale

    def test_mixed_weight_kinds_rejected(self):
        from shapeboost.geometry import GeometryError, PackedSample

        with pytest.raises(GeometryError):
            PackedSample([np.ones(3), np.eye(3)], ["a", "b"])
        with pytest.raises(GeometryError):
            PackedSample([np.eye(3), np.eye(4)], ["a", "b"])


class TestParallelCv:
    @staticmethod
    def _cv_inputs(kind, weights, n=18, folds=4):
        """A CV problem whose n is not divisible by the fold count, and its pole."""
        rng = np.random.default_rng(11)
        if weights == "gram":
            curves, cov, basis = _coefficient_dataset(rng, kind, n=n)
            _, _, effects, _, _ = make_dataset(np.random.default_rng(0), n=2)
        else:
            curves, cov, effects, basis, _ = make_dataset(rng, n=n, kind=kind)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=5, cv_folds=folds, rng_seed=2,
                             response_basis=BASIS, weight_rule=weights)
        return curves, cov, config, estimate_pole(curves, kind, basis, config)

    @pytest.mark.parametrize("weights", ["trapezoid", "gram"])
    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_every_chunking_gives_the_serial_fold_risks(self, kind, weights, fake_pool):
        # 2 to K workers split the folds into every chunking from halves to one fold per worker
        curves, cov, config, pole = self._cv_inputs(kind, weights)
        assert len(curves) % config.cv_folds != 0
        serial = cv_early_stop(curves, cov, config, kind, pole=pole)
        assert fake_pool == []  # one worker runs in this process, with no pool
        assert serial.fold_risks.shape == (4, 6) and np.isfinite(serial.fold_risks).all()
        for f in range(config.cv_folds):  # one fold at a time, as in test_fold_risks_are_prefix_fit_risks
            train, test = np.flatnonzero(serial.fold_assignment != f), np.flatnonzero(serial.fold_assignment == f)
            for t in (0, 2, config.max_iterations):
                stopped = boost_fit([curves[i] for i in train], {k: v[train] for k, v in cov.items()},
                                    dataclasses.replace(config, max_iterations=t), pole, kind)
                held_out = empirical_risk(stopped, [curves[i] for i in test], {k: v[test] for k, v in cov.items()})
                assert serial.fold_risks[f, t] == held_out, (f, t)
        for workers in range(2, config.cv_folds + 1):
            res = cv_early_stop(curves, cov, config, kind, pole=pole, workers=workers)
            assert np.array_equal(res.fold_risks, serial.fold_risks), workers
            assert res.m_stop == serial.m_stop
        assert [pool["chunks"] for pool in fake_pool] == [[[0, 1], [2, 3]], [[0, 1], [2], [3]], [[0], [1], [2], [3]]]

    def test_workers_capped_at_the_fold_count(self, fake_pool):
        curves, cov, config, pole = self._cv_inputs(GeometryKind.FORM, "trapezoid")
        serial = cv_early_stop(curves, cov, config, GeometryKind.FORM, pole=pole)
        capped = cv_early_stop(curves, cov, config, GeometryKind.FORM, pole=pole, workers=64)
        assert [pool["max_workers"] for pool in fake_pool] == [config.cv_folds]
        assert np.array_equal(capped.fold_risks, serial.fold_risks)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers, fake_pool):
        curves, cov, config, pole = self._cv_inputs(GeometryKind.FORM, "trapezoid")
        with pytest.raises(EffectError, match=f"workers must be at least 1, got {workers}"):
            cv_early_stop(curves, cov, config, GeometryKind.FORM, pole=pole, workers=workers)
        assert fake_pool == []

    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_worker_count_does_not_change_fold_risks(self, rng, kind):
        curves, cov, effects, basis, _ = make_dataset(rng, n=16, kind=kind)
        config = BoostConfig(
            effects=effects, step_length=0.4, max_iterations=5, cv_folds=4, rng_seed=2, response_basis=BASIS
        )
        pole = estimate_pole(curves, kind, basis, config)
        serial = cv_early_stop(curves, cov, config, kind, pole=pole, workers=1)
        fanned = cv_early_stop(curves, cov, config, kind, pole=pole, workers=2)
        assert np.array_equal(serial.fold_risks, fanned.fold_risks)
        assert serial.m_stop == fanned.m_stop


def test_rmse_of_tiny_forms_is_scale_invariant(rng):
    # every alignment threshold is relative: a sample scaled by 1e-7 gives the same rMSE
    import dataclasses

    from shapeboost.basis import PoleCoef

    curves, cov, effects, basis, pole_true = make_dataset(rng, n=12)
    config = BoostConfig(effects=effects, step_length=0.4, max_iterations=6, response_basis=BASIS)
    pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
    model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
    truth = [tangent_design(c.grid, model.transform, basis) @ (0.2 * np.ones(model.transform.m)) for c in curves]
    true_poles = [basis.design(c.grid) @ pole_true for c in curves]
    s = 1e-7
    tiny = dataclasses.replace(
        model,
        pole=PoleCoef(coef=s * pole.coef, basis=basis),
        effects=[dataclasses.replace(e, theta=s * e.theta) for e in model.effects],
    )
    tiny_curves = [CurveSample(c.id, c.grid, s * c.values, c.weights) for c in curves]
    for name in ("cat", "sm"):
        r = rmse_effect(model, curves, cov, name, truth, truth, true_poles)
        r_tiny = rmse_effect(tiny, tiny_curves, cov, name, [s * t for t in truth], [s * t for t in truth],
                             [s * p for p in true_poles])
        assert r_tiny == pytest.approx(r, rel=1e-10)
