import contextlib
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeboost.basis import SplineConfig
from shapeboost.effects import (
    EffectError,
    EffectSpec,
    PlsLearner,
    _kron_sum_abs_max,
    assemble_psi_matrix,
    assemble_psi_vector,
    covariate_design,
    curve_gram,
    curve_proj,
    df_to_lambda,
    unvec,
    vec,
)

from conftest import irregular_grid, smooth_curve, tangent_design


def assemble_normal_eqs(tangent_designs, weights, cov_design, residuals):
    """Reference (Psi_j, psi_j) from per-curve tangent designs and residuals."""
    grams = [curve_gram(D, w) for D, w in zip(tangent_designs, weights)]
    projs = np.array([curve_proj(D, w, e) for D, w, e in zip(tangent_designs, weights, residuals)])
    return assemble_psi_matrix(cov_design, grams), assemble_psi_vector(cov_design, projs)


def kron_sum(P_cov, P_tan):
    """Dense unit-scale penalty S = P_cov (x) I + I (x) P_tan, symmetrized."""
    S = np.kron(P_cov, np.eye(P_tan.shape[0])) + np.kron(np.eye(P_cov.shape[0]), P_tan)
    return 0.5 * (S + S.T)


def index_loop_penalty(P_cov, P_tan):
    """Unit-scale S of the vec layout (index l m + r), entry by entry."""
    mj, m = P_cov.shape[0], P_tan.shape[0]
    S = np.zeros((m * mj, m * mj))
    for l in range(mj):
        for r in range(m):
            for l2 in range(mj):
                for r2 in range(m):
                    S[l * m + r, l2 * m + r2] = P_cov[l, l2] * (r == r2) + (l == l2) * P_tan[r, r2]
    return S


def df_of(learner, Psi):
    """Effective degrees of freedom trace[(Psi + lam S)^{-1} Psi] of a learner, from its own solve."""
    return float(np.trace(learner.solve(Psi)))


class TestCovariateDesign:
    def test_linear_centered(self):
        spec = EffectSpec(name="lin", kind="linear", covariates=("z",))
        D, cmap = covariate_design(spec, {"z": np.array([1.0, 2.0, 3.0])}, 3)
        assert np.allclose(D[:, 0], [-1.0, 0.0, 1.0])
        assert cmap.row({"z": 2.0}) == pytest.approx([0.0])

    def test_categorical_effect_coding(self):
        spec = EffectSpec(name="cat", kind="categorical", covariates=("g",))
        table = {"g": np.array(["a", "b", "c", "a", "b", "c"])}
        D, cmap = covariate_design(spec, table, 6)
        assert D.shape == (6, 2)
        assert np.allclose(cmap.row({"g": "c"}), [-1.0, -1.0])
        assert np.allclose(cmap.row({"g": "a"}), [1.0, 0.0])
        # balanced design: columns sum to zero
        assert np.abs(D.sum(axis=0)).max() <= 1e-12

    def test_smooth_sum_to_zero(self, rng):
        spec = EffectSpec(
            name="sm", kind="smooth", covariates=("z",), covariate_basis=SplineConfig(3, 4),
            penalty_covariate="second_diff",
        )
        z = rng.uniform(-2, 5, 40)
        D, cmap = covariate_design(spec, {"z": z}, 40)
        assert np.abs(D.sum(axis=0)).max() <= 1e-10
        assert cmap.penalty.shape == (D.shape[1],) * 2

    def test_interaction_centered_around_marginals(self, rng):
        spec = EffectSpec(
            name="ia", kind="smooth_interaction", covariates=("a", "b"),
            covariate_basis=SplineConfig(2, 2), centering="around_marginals",
        )
        table = {"a": rng.uniform(0, 1, 30), "b": rng.uniform(0, 1, 30)}
        D, cmap = covariate_design(spec, table, 30)
        assert np.abs(D.sum(axis=0)).max() <= 1e-9
        for j, cov in enumerate(spec.covariates):
            Bm = cmap.margins[j].design(table[cov])
            assert np.abs(Bm.T @ D).max() <= 1e-9

    def test_nested_categorical_projection(self, rng):
        parent_spec = EffectSpec(name="status", kind="categorical", covariates=("s",))
        child_spec = EffectSpec(
            name="breed", kind="categorical", covariates=("b",),
            centering="around_marginals", parents=("status",),
        )
        table = {
            "s": np.array(["w", "w", "d", "d", "d", "d"]),
            "b": np.array(["x", "x", "y", "y", "z", "z"]),
        }
        Dp, _ = covariate_design(parent_spec, table, 6)
        Dc, _ = covariate_design(child_spec, table, 6, parent_designs={"status": Dp})
        assert np.abs(Dp.T @ Dc).max() <= 1e-10
        assert np.abs(Dc.sum(axis=0)).max() <= 1e-10

    def test_missing_covariate_and_unseen_level(self):
        spec = EffectSpec(name="cat", kind="categorical", covariates=("g",))
        with pytest.raises(EffectError):
            covariate_design(spec, {"other": np.array(["a", "b", "a"])}, 3)
        _, cmap = covariate_design(spec, {"g": np.array(["a", "b", "a"])}, 3)
        with pytest.raises(EffectError, match="'zz'"):
            cmap.row({"g": "zz"})
        with pytest.raises(EffectError, match="'zz' in curve row 1"):
            cmap.design({"g": np.array(["b", "zz"])}, 2)


ROW_SPECS = {
    "constant": EffectSpec(name="c", kind="constant"),
    "linear": EffectSpec(name="l", kind="linear", covariates=("a",)),
    "categorical": EffectSpec(name="g", kind="categorical", covariates=("g",)),
    "smooth": EffectSpec(
        name="s", kind="smooth", covariates=("a",), covariate_basis=SplineConfig(3, 4),
        penalty_covariate="second_diff",
    ),
    "smooth_interaction": EffectSpec(
        name="i", kind="smooth_interaction", covariates=("a", "b"),
        covariate_basis=SplineConfig(2, 2), centering="around_marginals",
    ),
}


class TestRowMatchesDesign:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ROW_SPECS)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        numeric_levels=st.booleans(),
        as_text=st.booleans(),
    )
    def test_row_is_design_of_one_record(self, kind, seed, n, numeric_levels, as_text):
        rng = np.random.default_rng(seed)
        # numeric-looking levels sort as strings: "-0.5" < "1" < "10" < "1e3" < "2"
        levels = ["1", "10", "2", "-0.5", "1e3"] if numeric_levels else ["b", "a", "ab", "B"]
        g = rng.choice(levels, n)
        g[:2] = levels[:2]
        table = {"a": rng.uniform(-3, 5, n), "b": rng.normal(size=n), "g": g}
        if as_text:
            # as read from a covariate file
            table = {k: v.astype(str) for k, v in table.items()}
        design, cmap = covariate_design(ROW_SPECS[kind], table, n)
        assert np.array_equal(cmap.design(table, n), design)
        raw = cmap.raw_design(table, n)
        if kind == "categorical":
            # per-record effect-coding reference: unit row e_k, the last level all -1
            K = len(cmap.levels)
            codes = np.vstack([np.eye(K - 1), -np.ones(K - 1)])
            assert np.array_equal(raw, np.array([codes[cmap.levels.index(str(v))] for v in table["g"]]))
        for i in range(n):
            record = {k: v[i] for k, v in table.items()}
            # the raw row of a record does not depend on the table it sits in
            assert np.array_equal(cmap.raw_design({k: np.array([v]) for k, v in record.items()}, 1)[0], raw[i])
            row = cmap.row(record)
            if cmap.Zc is None:
                assert np.array_equal(row, design[i])
            else:
                # raw @ Zc is one BLAS product whose summation order depends on the row's
                # position in the table: equal up to the rounding bound of a length-r dot product
                bound = 2 * raw.shape[1] * np.finfo(float).eps * (np.abs(raw[i]) @ np.abs(cmap.Zc))
                assert np.all(np.abs(row - design[i]) <= bound)


def _toy_system(rng, n=6, m=3, m0=4, k=12):
    from shapeboost.basis import TangentTransform, build_response_basis
    from shapeboost.geometry import trapezoid_weights

    basis = build_response_basis(SplineConfig(2, m0 - 3), np.linspace(0, 1, 20))
    Z = np.linalg.qr(rng.normal(size=(2 * basis.dim, m)))[0]
    tr = TangentTransform(Z)
    designs, weights, residuals = [], [], []
    for _ in range(n):
        grid = irregular_grid(rng, k)
        w = trapezoid_weights(grid)
        designs.append(tangent_design(grid, tr, basis))
        weights.append(w)
        residuals.append(smooth_curve(rng, grid))
    return designs, weights, residuals


class TestNormalEquations:
    def test_single_curve_constant_effect(self, rng):
        designs, weights, residuals = _toy_system(rng, n=1)
        Psi, psi = assemble_normal_eqs(designs, weights, np.ones((1, 1)), residuals)
        G1 = curve_gram(designs[0], weights[0])
        assert np.allclose(Psi, G1, atol=1e-12)

    def test_psi_vector_matches_direct_sum(self, rng):
        designs, weights, residuals = _toy_system(rng, n=5)
        cov = rng.normal(size=(5, 2))
        _, psi = assemble_normal_eqs(designs, weights, cov, residuals)
        m = designs[0].shape[1]
        direct = np.zeros(2 * m)
        for i in range(5):
            g = curve_proj(designs[i], weights[i], residuals[i])
            for l in range(2):
                for r in range(m):
                    direct[l * m + r] += cov[i, l] * g[r]
        assert np.allclose(psi, direct, atol=1e-12)

    def test_residual_in_first_direction(self, rng):
        # residuals equal to the first tangent direction: psi's first block is sum G_i[:, 0]
        designs, weights, _ = _toy_system(rng, n=4)
        residuals = [D[:, 0] for D in designs]
        Psi, psi = assemble_normal_eqs(designs, weights, np.ones((4, 1)), residuals)
        expected = np.sum([curve_gram(D, w)[:, 0] for D, w in zip(designs, weights)], axis=0)
        assert np.allclose(psi, expected, atol=1e-12)

    def test_psi_psd(self, rng):
        designs, weights, residuals = _toy_system(rng, n=6)
        cov = rng.normal(size=(6, 3))
        Psi, _ = assemble_normal_eqs(designs, weights, cov, residuals)
        assert np.linalg.eigvalsh(Psi).min() >= -1e-8 * np.trace(Psi)

    def test_kron_identity_structure(self, rng):
        # Psi = sum b b^T (x) G_i, verified entry-wise against the definition
        designs, weights, residuals = _toy_system(rng, n=3)
        cov = rng.normal(size=(3, 2))
        Psi, _ = assemble_normal_eqs(designs, weights, cov, residuals)
        m = designs[0].shape[1]
        for (r, l, r2, l2) in [(0, 0, 1, 1), (2, 1, 0, 0), (1, 0, 2, 1)]:
            val = sum(
                cov[i, l] * cov[i, l2] * np.real(
                    np.conj(designs[i][:, r]) @ (weights[i] * designs[i][:, r2])
                )
                for i in range(3)
            )
            assert Psi[l * m + r, l2 * m + r2] == pytest.approx(val, abs=1e-10)

    def test_psi_matrix_matches_kron_loop(self, rng):
        # the one-GEMM assembly against the per-curve Kronecker sum, from a list and a stack
        designs, weights, _ = _toy_system(rng, n=7, m=5)
        grams = [curve_gram(D, w) for D, w in zip(designs, weights)]
        cov = rng.normal(size=(7, 3))
        ref = np.zeros((15, 15))
        for b, G in zip(cov, grams):
            ref += np.kron(np.outer(b, b), G)
        ref = 0.5 * (ref + ref.T)
        for stack in (grams, np.stack(grams)):
            Psi = assemble_psi_matrix(cov, stack)
            assert np.abs(Psi - ref).max() <= 1e-12 * np.abs(ref).max()


class TestPlsSolve:
    def test_identity_system(self, rng):
        m, mj = 4, 3
        psi = rng.normal(size=m * mj)
        theta = unvec(PlsLearner.unpenalized(np.eye(m * mj)).solve(psi), m, mj)
        assert np.allclose(theta, unvec(psi, m, mj))

    def test_ridge_shrink_to_zero(self, rng):
        # a df target near zero calibrates a ridge scale of order trace(Psi) / df
        m, mj = 3, 2
        A = 100.0 * rng.normal(size=(10, m * mj))
        Psi = A.T @ A
        psi = rng.normal(size=m * mj)
        learner = PlsLearner.calibrated(Psi, np.eye(mj), np.eye(m), 1e-4)
        assert learner.lam >= 1e6
        theta = unvec(learner.solve(psi), m, mj)
        assert np.linalg.norm(theta) <= 1e-6 * np.linalg.norm(psi)

    def test_kron_case_vs_dense_oracle(self, rng):
        m, mj = 2, 2
        A = rng.normal(size=(12, m * mj))
        Psi = A.T @ A
        psi = rng.normal(size=m * mj)
        # the relative weights 0.7 and 1.3 of the two directions ride in the factors
        P_cov = 0.7 * np.array([[2.0, -1.0], [-1.0, 2.0]])
        P_tan = 1.3 * np.array([[1.0, 0.3], [0.3, 1.0]])
        learner = PlsLearner.calibrated(Psi, P_cov, P_tan, 2.5)
        # dense hand-assembled penalty
        R = learner.lam * index_loop_penalty(P_cov, P_tan)
        assert learner.lam > 0.0
        assert np.allclose(learner.lam * kron_sum(P_cov, P_tan), R, atol=1e-14)
        theta = unvec(learner.solve(psi), m, mj)
        oracle = np.linalg.solve(Psi + R, psi)
        assert np.allclose(vec(theta), oracle, atol=1e-10)

    def test_residual_small(self, rng):
        m, mj = 5, 4
        A = rng.normal(size=(40, m * mj))
        Psi = A.T @ A
        psi = rng.normal(size=m * mj)
        P_cov, P_tan = 0.1 * np.eye(mj), 0.2 * np.eye(m)
        learner = PlsLearner.calibrated(Psi, P_cov, P_tan, 8.0)
        theta = unvec(learner.solve(psi), m, mj)
        R = learner.lam * kron_sum(P_cov, P_tan)
        assert learner.lam > 0.0
        assert np.linalg.norm((Psi + R) @ vec(theta) - psi) <= 1e-8 * np.linalg.norm(psi)
        rhs = np.column_stack([psi, rng.normal(size=m * mj)])  # a matrix right-hand side
        assert np.linalg.norm((Psi + R) @ learner.solve(rhs) - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_singular_system_flagged(self, rng):
        Psi = np.zeros((4, 4))
        psi = np.zeros(4)
        with pytest.warns(UserWarning, match="effect 'toy'"):
            learner = PlsLearner.unpenalized(Psi, "effect 'toy'")
        assert np.allclose(unvec(learner.solve(psi), 2, 2), 0)

    def test_objective_minimized(self, rng):
        # penalized objective never decreases under random perturbations
        designs, weights, residuals = _toy_system(rng, n=6)
        cov = rng.normal(size=(6, 2))
        Psi, psi = assemble_normal_eqs(designs, weights, cov, residuals)
        m = designs[0].shape[1]
        learner = PlsLearner.calibrated(Psi, np.eye(2), np.eye(m), 3.0)
        theta = unvec(learner.solve(psi), m, 2)
        R = learner.lam * kron_sum(np.eye(2), np.eye(m))
        assert learner.lam > 0.0

        def objective(tv):
            return tv @ (Psi + R) @ tv - 2 * tv @ psi

        base = objective(vec(theta))
        for _ in range(50):
            delta = rng.normal(size=m * 2) * 1e-3
            assert objective(vec(theta) + delta) >= base - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_vec_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m, mj = int(rng.integers(1, 8)), int(rng.integers(1, 7))
        theta = rng.normal(size=(m, mj))
        assert np.array_equal(unvec(vec(theta), m, mj), theta)
        v = vec(theta)
        assert np.array_equal(v[: m], theta[:, 0])  # column-major convention


def random_spd(rng, n):
    """Well-conditioned SPD matrix of size n."""
    X = rng.normal(size=(n + 5, n))
    return X.T @ X / (n + 5) + np.eye(n)


class TestPlsSolveMatchesCholesky:
    """The eigenbasis solve of an unpenalized system against LAPACK's Cholesky solve (scipy as the oracle)."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 371])
    def test_vector_and_matrix_rhs(self, n):
        rng = np.random.default_rng(n)
        A = random_spd(rng, n)
        learner = PlsLearner.unpenalized(A)
        factor = scipy.linalg.cho_factor(A)
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
            ref = scipy.linalg.cho_solve(factor, rhs)
            assert np.linalg.norm(learner.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_complex_rhs(self, rng):
        # the preliminary pole fit solves for complex basis coefficients
        A = random_spd(rng, 70)
        rhs = rng.normal(size=70) + 1j * rng.normal(size=70)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), rhs)
        assert np.linalg.norm(PlsLearner.unpenalized(A).solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_fallback_warns_once_least_norm(self, rng):
        X = rng.normal(size=(3, 6))
        A = X.T @ X  # rank 3
        rhs = A @ rng.normal(size=6)  # in the range of A
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            learner = PlsLearner.unpenalized(A, "effect 'toy'")
            x = learner.solve(rhs)
            learner.solve(rhs)
        assert [str(w.message) for w in caught] == ["effect 'toy': singular PLS system, using pseudo-inverse"]
        # the least-norm solution lies in the row space of A
        ref = np.linalg.lstsq(A, rhs, rcond=None)[0]
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def dense_df_to_lambda(Psi, P_cov, P_tan, df_target, tol=1e-4):
    """Reference calibration: generalized eigenvalues through the Cholesky factor of the dense S."""
    S = kron_sum(P_cov, P_tan)
    eig_min = float(np.linalg.eigvalsh(P_cov).min() + np.linalg.eigvalsh(P_tan).min())
    s_scale = float(np.abs(S).max())
    if s_scale == 0.0:
        return 0.0  # S = 0: no penalty for a scale to act on
    if eig_min < 1e-10 * s_scale:
        S = S + 1e-8 * s_scale * np.eye(S.shape[0])
    L = np.linalg.cholesky(S)
    M = scipy.linalg.solve_triangular(L, Psi, lower=True)
    M = scipy.linalg.solve_triangular(L, M.T, lower=True)
    mu = np.linalg.eigvalsh(0.5 * (M + M.T))
    mu = np.where(mu > 1e-12 * max(mu.max(), 1e-300), mu, 0.0)
    pos = mu[mu > 0]

    def df(lam):
        return float(np.sum(pos / (pos + lam)))

    if df_target >= pos.size - tol:
        return 0.0
    lo, hi = -20.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = df(np.exp(mid))
        if abs(val - df_target) <= tol:
            return float(np.exp(mid))
        if val > df_target:
            lo = mid
        else:
            hi = mid
    return float(np.exp(0.5 * (lo + hi)))


def _second_diff(n):
    """Second-difference penalty D^T D of n coefficients (the identity below three)."""
    if n < 3:
        return np.eye(n)
    D = np.diff(np.eye(n), n=2, axis=0)
    return D.T @ D


class TestDfCalibrationMatchesDense:
    """The Kronecker-eigenbasis calibration returns the lambda of the dense Cholesky one."""

    @staticmethod
    def _penalties(kind, mj, m):
        if kind == "zero":
            return np.zeros((mj, mj)), np.zeros((m, m))
        if kind == "ridge":  # unridged S: the tangent ridge makes S positive definite
            return _second_diff(mj), np.eye(m)
        return _second_diff(mj), _second_diff(m)  # both margins singular: ridged S

    @pytest.mark.parametrize("kind", ["ridge", "second_diff", "zero"])
    @pytest.mark.parametrize("mj, m", [(1, 12), (4, 9), (7, 26)])
    def test_equal_lambda(self, kind, mj, m):
        rng = np.random.default_rng(mj * 100 + m)
        P_cov, P_tan = self._penalties(kind, mj, m)
        X = rng.normal(size=(3 * mj * m, mj * m)) * rng.uniform(0.1, 3.0, size=mj * m)
        Psi = X.T @ X / X.shape[0]
        for target in (1.5, 4.0, 0.5 * mj * m):
            # without a penalty every target below the rank is unreachable
            unreachable = pytest.warns(UserWarning, match="unreachable without a penalty")
            with unreachable if kind == "zero" else contextlib.nullcontext():
                lam = df_to_lambda(Psi, P_cov, P_tan, target)
            assert lam == dense_df_to_lambda(Psi, P_cov, P_tan, target)

    def test_penalty_scale_from_factors_equals_materialized(self):
        # df_to_lambda reads max |S| from the factors; the dense S gives the same float
        rng = np.random.default_rng(17)
        for trial in range(400):
            mj, m = (int(d) for d in rng.integers(1, 9, size=2) * (1, 3))
            P_cov, P_tan = (rng.normal(size=(d, d)) * 10.0 ** rng.integers(-6, 6) for d in (mj, m))
            if trial % 4 == 0:
                P_cov = np.zeros((mj, mj))
            elif trial % 4 == 1:
                P_tan = np.zeros((m, m))
            elif trial % 4 == 2:  # symmetric positive semi-definite, as the learners' penalties
                P_cov, P_tan = P_cov @ P_cov.T, P_tan @ P_tan.T
            S = kron_sum(P_cov, P_tan)
            assert _kron_sum_abs_max(P_cov, P_tan) == float(np.abs(S).max()), (trial, mj, m)


class TestDfCalibration:
    def test_lambda_zero_gives_rank(self, rng):
        m, mj = 4, 3
        A = rng.normal(size=(30, m * mj))
        Psi = A.T @ A
        lam = df_to_lambda(Psi, np.eye(mj), np.eye(m), float(m * mj))
        assert lam == 0.0

    def test_df_monotone_decreasing(self, rng):
        m, mj = 3, 3
        A = rng.normal(size=(30, m * mj))
        Psi = A.T @ A
        # calibrated learners from the rank down: lambda grows and the learner's own df falls with it
        learners = [PlsLearner.calibrated(Psi, np.eye(mj), np.eye(m), t) for t in (9.0, 6.0, 3.0, 1.0)]
        lams = [lr.lam for lr in learners]
        vals = [df_of(lr, Psi) for lr in learners]
        assert lams[0] == 0.0 and all(a < b for a, b in zip(lams, lams[1:]))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bisection_hits_target(self, rng):
        m, mj = 5, 4
        A = rng.normal(size=(60, m * mj))
        Psi = A.T @ A
        P_cov = np.eye(mj)
        P_tan = np.eye(m)
        for target in [1.0, 3.5, 10.0]:
            lam = df_to_lambda(Psi, P_cov, P_tan, target)
            S = np.kron(P_cov, np.eye(m)) + np.kron(np.eye(mj), P_tan)
            df = np.trace(np.linalg.solve(Psi + lam * S, Psi))
            assert df == pytest.approx(target, abs=1e-4)

    def test_categorical_ridge_df_one(self, rng):
        # a one-column categorical learner regularized to one degree of freedom
        from shapeboost.geometry import trapezoid_weights

        designs, weights, _ = _toy_system(rng, n=8)
        cov = np.array([[1.0] if i % 2 == 0 else [-1.0] for i in range(8)])
        grams = [curve_gram(D, w) for D, w in zip(designs, weights)]
        Psi = assemble_psi_matrix(cov, grams)
        m = designs[0].shape[1]
        lam = df_to_lambda(Psi, np.eye(1), np.eye(m), 1.0)
        S = np.kron(np.eye(1), np.eye(m)) + np.kron(np.eye(1), np.eye(m))
        df = np.trace(np.linalg.solve(Psi + lam * S, Psi))
        assert df == pytest.approx(1.0, abs=1e-4)

    def test_no_penalty_has_no_scale(self, rng):
        # S = 0: lambda multiplies nothing, so a df below the rank is unreachable and lambda is 0
        m, mj = 4, 3
        A = rng.normal(size=(30, m * mj))
        Psi = A.T @ A
        P_cov, P_tan = np.zeros((mj, mj)), np.zeros((m, m))
        with pytest.warns(UserWarning, match="df target 4.0 unreachable without a penalty"):
            assert df_to_lambda(Psi, P_cov, P_tan, 4.0) == 0.0
        # the learner fits unpenalized: df = rank
        with pytest.warns(UserWarning, match="df target 4.0 unreachable without a penalty"):
            learner = PlsLearner.calibrated(Psi, P_cov, P_tan, 4.0)
        assert learner.lam == 0.0
        assert df_of(learner, Psi) == pytest.approx(m * mj, rel=1e-12)

    def test_unreachable_target_clamped(self, rng):
        m, mj = 3, 2
        A = rng.normal(size=(4, m * mj))  # rank 4 < 6
        Psi = A.T @ A
        with pytest.warns(UserWarning):
            lam = df_to_lambda(Psi, np.eye(mj), np.eye(m), 6.0)
        assert lam == 0.0



KRON_CASES = [(mj, pen, q, case) for mj in (1, 3, 7) for pen in ("second_diff", "identity", "zero") for q in (1.0, 0.0)
              for case in ("calibrated", "clamp_rank", "clamp_low", "singular") if not (case == "singular" and mj == 1)]


class TestKronLearnerMatchesDense:
    """A learner of Psi = A (x) G with P_tan = q I, built from its factors, equals the dense learner."""

    @pytest.mark.parametrize("mj,pen,q,case", KRON_CASES)
    def test_matches_dense(self, rng, mj, pen, q, case):
        m, p = 5, 5 * mj
        X = rng.normal(size=(12, mj))
        if case == "singular":
            X[:, -1] = X[:, 0]  # rank m_j - 1: the pseudo-inverse when unpenalized
        H = rng.normal(size=(m, m))
        A, G = X.T @ X, H @ H.T + 0.1 * np.eye(m)
        if case == "clamp_low":
            A = 1e-14 * A  # df at lambda = e^-20 stays below the target
        P_cov = {"second_diff": _second_diff(mj), "identity": np.eye(mj), "zero": np.zeros((mj, mj))}[pen]
        target = {"calibrated": 0.6 * p, "clamp_rank": 1e9, "clamp_low": p - 0.5, "singular": 2.5}[case]
        learners = []
        for build in (
            lambda: PlsLearner.calibrated(np.kron(A, G), P_cov, q * np.eye(m), target),
            lambda: PlsLearner.calibrated_kron(A, np.linalg.eigh(G), P_cov, q, target),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                learners.append((build(), [str(w.message) for w in caught]))
        (dense, dense_warned), (kron, kron_warned) = learners
        assert kron_warned == dense_warned
        # each case reaches the fallback it is named for
        unpenalized = pen == "zero" and q == 0.0
        expected = {
            "calibrated": "unreachable without a penalty" if unpenalized else None,
            "clamp_rank": "exceeds rank",
            "clamp_low": "unreachable without a penalty" if unpenalized else "clamping at lambda = e^-20",
            "singular": "using pseudo-inverse" if unpenalized else None,
        }[case]
        assert any(expected in msg for msg in dense_warned) if expected else dense_warned == []
        assert kron.lam == pytest.approx(dense.lam, rel=1e-10, abs=0.0)
        for rhs in (rng.normal(size=p), rng.normal(size=(p, 3)),
                    rng.normal(size=p) + 1j * rng.normal(size=p), rng.normal(size=(p, 2)) + 1j * rng.normal(size=(p, 2))):
            ref = dense.solve(rhs)
            assert np.linalg.norm(kron.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.linalg.norm(kron.coefs(kron.coords(rhs[None]))[0] - ref) <= 1e-10 * np.linalg.norm(ref)
        v = rng.normal(size=p)[None]
        assert kron.objective(kron.coords(v))[0] == pytest.approx(dense.objective(dense.coords(v))[0], rel=1e-10)
        # one system, whose factors are m_j x m_j and m x m: no p x p array
        arrays = [a for a in vars(kron).values() if isinstance(a, np.ndarray)]
        assert all(a.shape[0] == 1 for a in arrays)
        assert max(a.shape[-1] for a in arrays) == p
        assert all(a.ndim < 3 or a.shape[1] in (m, mj) for a in arrays)
