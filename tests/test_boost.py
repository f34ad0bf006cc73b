import warnings

import numpy as np
import pytest

from shapeboost.basis import SplineConfig, build_response_basis
from shapeboost.boost import (
    BoostConfig,
    boost_fit,
    cv_early_stop,
    empirical_risk,
    estimate_pole,
    predict_mean,
    predict_means,
    rmse_effect,
    transported_residuals,
)
from shapeboost.effects import EffectSpec
from shapeboost.geometry import (
    CurveSample,
    GeometryKind,
    TangentEvals,
    center,
    empirical_inner,
    empirical_norm,
    exp_map,
    geodesic_dist,
    tangent_project,
    trapezoid_weights,
    uniform_weights,
)

from conftest import irregular_grid, smooth_curve, tangent_design

BASIS = SplineConfig(degree=3, n_knots=8, cyclic=True)


def make_dataset(rng, n=24, kind=GeometryKind.FORM, noise=0.04, k_range=(15, 35)):
    """Small synthetic dataset: categorical + smooth effect around a spline pole."""
    basis = build_response_basis(BASIS, np.linspace(0, 1, 60))
    dense = np.linspace(0, 1, 100, endpoint=False)
    pole_true = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
    wdir = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    curves, kappa, z = [], [], []
    for i in range(n):
        k = int(rng.integers(*k_range))
        grid = irregular_grid(rng, k)
        w = trapezoid_weights(grid)
        B = basis.design(grid)
        p_ev = B @ pole_true
        kap = i % 2
        zz = (i // 2) % 6 - 2.5
        field = (0.1 if kap == 0 else -0.1) * (B @ wdir) + 0.04 * zz * (B @ (1j * wdir))
        h = tangent_project(field, p_ev, w, kind, grid)
        eps = tangent_project(
            noise * (rng.normal(size=k) + 1j * rng.normal(size=k)), p_ev, w, kind, grid
        )
        beta = TangentEvals(grid, h.values + eps.values, h.pole_evals, kind, w)
        yv = exp_map(p_ev, beta, kind, check=False)
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
            res = [geodesic_dist(c, basis.design(c.grid) @ pole.coef, kind) for c in curves]
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
        d1 = geodesic_dist(y1, p_ev, GeometryKind.FORM)
        d2 = geodesic_dist(y2, p_ev, GeometryKind.FORM)
        d12 = geodesic_dist(y1, basis.design(grid) @ c2, GeometryKind.FORM)
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
            eps, _ = ps.residuals(np.zeros((len(curves), ps.transform.m)))
            grams = ps.grams()
            mean_coef = np.linalg.solve(grams.sum(axis=0), ps.project(eps).sum(axis=0))
            G0 = grams.mean(axis=0)
            mean_norm = np.sqrt(mean_coef @ G0 @ mean_coef)
            assert mean_norm <= 1e-6 * np.mean(ps.packed.norm(eps))


class TestBoostFit:
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
        direct = np.mean([
            geodesic_dist(c, basis.design(c.grid) @ pole.coef, GeometryKind.FORM) ** 2 for c in curves
        ])
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
        ctx = _FitContext(ps, cov, config)
        thetas = [np.zeros((ctx.m, cm.m_j)) for cm in ctx.cmaps]
        for it in range(config.max_iterations):
            projs, _ = ctx.residual_pass(ctx.predictor_coefs(thetas))
            sse = []
            cands = []
            for j, learner in enumerate(ctx.learners):
                psi = assemble_psi_vector(ctx.cov_designs[j], projs)
                v = learner.solve(psi)
                # full SSE via explicit residual evaluation
                theta_j = unvec(v, ctx.m, ctx.cmaps[j].m_j)
                eps, _ = ps.residuals(ctx.predictor_coefs(thetas))
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
        for c, a, b in zip(curves, means, predict_means(repoled, cov, grids)):
            scale = 1.0 if kind is GeometryKind.SHAPE else empirical_norm(center(a, c.weights), c.weights)
            assert geodesic_dist(CurveSample(c.id, c.grid, b, c.weights), a, kind) <= 1e-9 * scale

    def test_transported_residuals_are_tangent(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=10)
        config = BoostConfig(effects=effects, step_length=0.4, max_iterations=5, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        res = transported_residuals(model, curves, cov)
        for te in res.residuals:
            te.validate(1e-8)


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
            mu_insample = ps.means(model.predictor_coefs(cov, len(curves)))[ps.packed.seg == i]
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
