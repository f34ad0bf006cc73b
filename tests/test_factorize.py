import warnings

import numpy as np
import pytest
import scipy.linalg

from shapeboost.basis import curve_design
from shapeboost.boost import BoostConfig, boost_fit, estimate_pole
from shapeboost.effects import curve_gram
from shapeboost.factorize import (
    direction_visual,
    effect_factorization,
    factorize_effect,
    factorize_predictor,
    model_grams,
    predictor_factorization,
)
from shapeboost.geometry import CurveSample, GeometryKind
from shapeboost.simulate import SimConfig, default_effects, gen_dataset, gen_truth

from test_boost import BASIS, make_dataset


def random_spd(rng, m, n_obs=None):
    A = rng.normal(size=(n_obs or (m + 10), m))
    return A.T @ A, A


def cholesky_factorization(theta, G0, G1):
    """Oracle for ``factorize_effect`` on positive-definite Grams, from triangular roots G_j = R_j^T R_j.

    The SVD of R_0 Theta R_1^T = V_0 D V_1^T gives U_j = R_j^{-1} V_j; then the
    documented sign rule: the first entry of each direction above 1e-8 of its
    largest |entry| is positive, and the scalar coefficients flip with it.
    Returns (singular values, directions, scalar coefficients).
    """
    R0 = scipy.linalg.cholesky(G0, lower=False)
    R1 = scipy.linalg.cholesky(G1, lower=False)
    V0, d, V1t = np.linalg.svd(R0 @ theta @ R1.T, full_matrices=False)
    U0 = scipy.linalg.solve_triangular(R0, V0)
    U1 = scipy.linalg.solve_triangular(R1, V1t.T)
    for r in range(d.size):
        col = U0[:, r]
        if col[np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0]] < 0:
            U0[:, r], U1[:, r] = -U0[:, r], -U1[:, r]
    return d, U0, U1 * d


class TestFactorizeEffect:
    def test_identity_grams_plain_svd(self):
        fac = factorize_effect(np.diag([3.0, 1.0]), np.eye(2), np.eye(2))
        assert np.allclose(fac.singular_values, [3.0, 1.0])
        assert np.allclose(np.abs(fac.directions), np.eye(2), atol=1e-12)
        assert np.allclose(fac.variance_shares, [9.0, 1.0])

    def test_rank_one(self, rng):
        u = rng.normal(size=5)
        v = rng.normal(size=3)
        fac = factorize_effect(np.outer(u, v), np.eye(5), np.eye(3))
        assert fac.singular_values[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        assert np.all(fac.singular_values[1:] <= 1e-10)

    def test_cholesky_qr_agree_and_reconstruct(self, rng):
        # the eigendecomposition root against the triangular Cholesky root of the oracle
        for _ in range(5):
            m, mj = 5, 4
            theta = rng.normal(size=(m, mj))
            G0, _ = random_spd(rng, m, 30)
            G1, _ = random_spd(rng, mj, 25)
            fac = factorize_effect(theta, G0, G1)
            d, _, _ = cholesky_factorization(theta, G0, G1)
            assert np.allclose(fac.singular_values, d, atol=1e-8)
            U1 = fac.scalar_coefs / np.where(fac.singular_values > 0, fac.singular_values, 1.0)
            rec = fac.directions @ np.diag(fac.singular_values) @ U1.T
            err = rec - theta
            rel = np.sqrt(np.trace(G0 @ err @ G1 @ err.T) / np.trace(G0 @ theta @ G1 @ theta.T))
            assert rel <= 1e-8

    def test_orthonormal_directions(self, rng):
        m, mj = 6, 4
        theta = rng.normal(size=(m, mj))
        G0, _ = random_spd(rng, m)
        G1, _ = random_spd(rng, mj)
        fac = factorize_effect(theta, G0, G1)
        ncomp = fac.singular_values.size
        gram = fac.directions.T @ G0 @ fac.directions
        assert np.abs(gram - np.eye(ncomp)).max() <= 1e-8
        gram1 = fac.scalar_coefs.T @ G1 @ fac.scalar_coefs
        assert np.allclose(np.diag(gram1), fac.variance_shares, atol=1e-8)

    def test_truncation_beats_random_alternatives(self, rng):
        m, mj, L = 5, 4, 2
        theta = rng.normal(size=(m, mj))
        G0, _ = random_spd(rng, m)
        G1, _ = random_spd(rng, mj)
        fac = factorize_effect(theta, G0, G1)
        U1 = fac.scalar_coefs / np.where(fac.singular_values > 0, fac.singular_values, 1.0)
        rec_L = fac.directions[:, :L] @ np.diag(fac.singular_values[:L]) @ U1[:, :L].T

        def gram_err(E):
            return np.trace(G0 @ E @ G1 @ E.T)

        ours = gram_err(rec_L - theta)
        for _ in range(100):
            alt = sum(
                np.outer(rng.normal(size=m), rng.normal(size=mj)) for _ in range(L)
            )
            # give alternatives their optimal scale
            denom = gram_err(alt)
            if denom > 0:
                scale = np.trace(G0 @ alt @ G1 @ theta.T) / denom
                alt = scale * alt
            assert gram_err(alt - theta) >= ours - 1e-10

    def test_rank_deficient_gram_reduces_components(self, rng):
        m, mj = 5, 3
        theta = rng.normal(size=(m, mj))
        A = rng.normal(size=(3, m))
        G0 = A.T @ A  # rank 3
        G1, _ = random_spd(rng, mj)
        fac = factorize_effect(theta, G0, G1)
        assert fac.singular_values.size == 3

    def test_sign_convention(self, rng):
        m, mj = 4, 4
        theta = rng.normal(size=(m, mj))
        fac = factorize_effect(theta, np.eye(m), np.eye(mj))
        for r in range(fac.singular_values.size):
            col = fac.directions[:, r]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert col[nz[0]] > 0

    def test_methods_agree_on_signs(self):
        # the sign rule acts on the tangent coefficients, which do not depend on
        # the Gram root, so the eigendecomposition root and the triangular
        # Cholesky root of the oracle give the same signed components
        rng = np.random.default_rng(1)
        for _ in range(50):
            m, mj = 8, 5
            theta = rng.normal(size=(m, mj))
            A0 = rng.normal(size=(30, m))
            A1 = rng.normal(size=(25, mj))
            fac = factorize_effect(theta, A0.T @ A0, A1.T @ A1)
            _, U0, S = cholesky_factorization(theta, A0.T @ A0, A1.T @ A1)
            for a, b in ((fac.directions, U0), (fac.scalar_coefs, S)):
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    def test_variance_sum_matches_predictor_variance(self, rng):
        # sum of component variances equals the empirical predictor variance
        m, mj, n = 5, 3, 40
        theta = rng.normal(size=(m, mj))
        B = rng.normal(size=(n, mj))
        G0, _ = random_spd(rng, m)
        fac = factorize_effect(theta, G0, B.T @ B / n)
        h = theta @ B.T  # (m, n)
        direct = np.mean(np.einsum("mi,mn,ni->i", h, G0, h))
        assert fac.variance_shares.sum() == pytest.approx(direct, rel=1e-8)


class TestPredictorFactorization:
    def test_single_effect_matches_effect_factorization(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects[:1], step_length=0.5, max_iterations=6, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        f_eff = effect_factorization(model, curves, cov, "cat")
        f_joint = predictor_factorization(model, curves, cov)
        assert np.array_equal(f_eff.singular_values, f_joint.singular_values)

    def test_two_orthogonal_rank_one_effects(self, rng):
        # block-orthogonal effects: each component variance equals its effect variance
        m = 6
        G0 = np.eye(m)
        xi1 = np.zeros(m); xi1[0] = 1.0
        xi2 = np.zeros(m); xi2[1] = 1.0
        n = 24
        b1 = np.tile([1.0, -1.0], n // 2)[:, None]
        b2 = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)[:, None]
        t1 = 2.0 * xi1[:, None]
        t2 = 1.0 * xi2[:, None]
        fac = factorize_predictor([t1, t2], ["a", "b"], G0, [b1, b2])
        assert fac.singular_values.size == 2
        assert np.allclose(sorted(fac.variance_shares, reverse=True), [4.0, 1.0], atol=1e-10)
        assert fac.sub_variances is not None
        # within each component exactly one effect carries all variance
        assert np.allclose(np.sort(fac.sub_variances, axis=0)[0], 0.0, atol=1e-12)

    def test_first_component_matches_projection_pursuit_oracle(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=16)
        config = BoostConfig(effects=effects, step_length=0.5, max_iterations=15, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        model = boost_fit(curves, cov, config, pole, GeometryKind.FORM)
        fac = predictor_factorization(model, curves, cov)
        G0, designs = model_grams(model, curves, cov)
        # oracle: projected gradient ascent maximizing the variance captured by
        # a single direction xi with ||xi||_G0 = 1
        coefs = np.zeros((len(curves), model.transform.m))
        for eff, B in zip(model.effects, designs):
            coefs += B @ eff.theta.T
        A = (coefs.T @ coefs) / len(curves)  # E[c c^T]
        u = rng.normal(size=model.transform.m)
        # projected power iteration for max_u u^T G0 A G0 u s.t. u^T G0 u = 1
        for _ in range(5000):
            u = A @ (G0 @ u)
            u = u / np.sqrt(u @ G0 @ u)
        oracle_var = u @ G0 @ A @ G0 @ u
        assert fac.variance_shares[0] == pytest.approx(oracle_var, rel=1e-4)


class TestModelGramsMatchPerCurveReference:
    @pytest.mark.parametrize("kind, weight_rule", [("form", "trapezoid"), ("shape", "trapezoid"), ("form", "gram")])
    def test_fitted_model_components(self, kind, weight_rule):
        # G0 against the mean of the per-curve tangent Grams, and the components
        # against a factorization under that reference; five learners whose
        # joint covariate Gram is singular, so the rank cut is exercised
        truth = gen_truth()
        sample, cov, _ = gen_dataset(truth, SimConfig(n=36, k_bar=40, kind=kind, seed=31))
        basis = truth.pole.basis
        if weight_rule == "gram":  # coefficient-level data: least-squares response-basis coefficients
            grid = np.arange(basis.dim) / (basis.dim - 1)
            sample = [
                CurveSample(c.id, grid, np.linalg.lstsq(basis.design(c.grid), c.values, rcond=None)[0], basis.gram)
                for c in sample
            ]
        config = BoostConfig(
            effects=default_effects(), step_length=0.5, max_iterations=10, response_basis=basis.cfg,
            weight_rule=weight_rule,
        )
        model = boost_fit(sample, cov, config, estimate_pole(sample, kind, basis, config), kind)
        Zc = model.transform.complex_columns
        G0_ref = np.mean(
            [curve_gram(curve_design(model.basis, c, model.coef_mode) @ Zc, c.weights) for c in sample], axis=0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G0, designs = model_grams(model, sample, cov)
            assert np.abs(G0 - G0_ref).max() <= 1e-12 * np.abs(G0_ref).max()
            facs = [predictor_factorization(model, sample, cov)] + [
                effect_factorization(model, sample, cov, eff.spec.name) for eff in model.effects
            ]
            groups = [list(range(len(model.effects)))] + [[k] for k in range(len(model.effects))]
            refs = [
                factorize_predictor(
                    [model.effects[k].theta for k in keep], [model.effects[k].spec.name for k in keep],
                    G0_ref, [designs[k] for k in keep],
                )
                for keep in groups
            ]
        for fac, ref, keep in zip(facs, refs, groups):
            # the rank cut keeps exactly the numerical rank of both Grams: no spurious zero component
            rank = min(np.linalg.matrix_rank(G0_ref), np.linalg.matrix_rank(np.hstack([designs[k] for k in keep])))
            assert fac.singular_values.size == ref.singular_values.size == rank
            # near-zero singular values are rounding noise, so compare against the leading one
            assert np.abs(fac.singular_values - ref.singular_values).max() <= 1e-10 * ref.singular_values[0]


class TestDirectionVisual:
    def _model(self, rng):
        curves, cov, effects, basis, _ = make_dataset(rng, n=12)
        config = BoostConfig(effects=effects, step_length=0.5, max_iterations=8, response_basis=BASIS)
        pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
        return boost_fit(curves, cov, config, pole, GeometryKind.FORM), curves, cov

    def test_tau_zero_identical(self, rng):
        model, curves, cov = self._model(rng)
        xi = np.zeros(model.transform.m)
        xi[0] = 1.0
        vis = direction_visual(model, xi, 0.0)
        assert np.allclose(vis.pole_polyline, vis.displaced_polyline)

    def test_form_displacement_is_additive(self, rng):
        model, curves, cov = self._model(rng)
        fac = effect_factorization(model, curves, cov, "cat")
        tau = 0.37
        vis = direction_visual(model, fac.directions[:, 0], tau)
        D = model.basis.design(vis.grid) @ model.transform.complex_columns
        expected = vis.pole_polyline + D @ (tau * fac.directions[:, 0])
        assert np.allclose(vis.displaced_polyline, expected, atol=1e-12)

    def test_default_tau_recomputed_from_shares(self, rng):
        model, curves, cov = self._model(rng)
        taus = []
        for eff in model.effects:
            fac = effect_factorization(model, curves, cov, eff.spec.name)
            taus.append(np.sqrt(fac.total_variance))
        default_tau = max(taus)
        # the documented default: max over effects of the total-variance root
        assert default_tau > 0
        vis = direction_visual(model, np.eye(model.transform.m)[0], default_tau, n_points=50)
        assert vis.pole_polyline.size == 50
        assert len(vis.segments) >= 2
