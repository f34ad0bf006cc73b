import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BSpline

import shapeboost
from shapeboost.basis import (
    PenaltyBlock,
    PoleCoef,
    SplineConfig,
    TangentTransform,
    build_response_basis,
    center_pole,
    constraint_matrix,
    curve_design,
    nullspace,
    nullspace_transform,
    packed_constraint_matrix,
    sample_design,
)
from shapeboost.geometry import (
    CurveSample,
    DesignBand,
    GeometryError,
    GeometryKind,
    PackedSample,
    empirical_inner,
    trapezoid_weights,
    uniform_weights,
)

from conftest import irregular_grid, random_spd, smooth_curve, tangent_design


class TestResponseBasis:
    def test_degree_one_hat_at_knot(self):
        basis = build_response_basis(SplineConfig(degree=1, n_knots=3), np.linspace(0, 1, 10))
        # at an interior knot exactly one hat function equals 1
        row = basis.design(np.array([0.25]))[0]
        assert row.max() == pytest.approx(1.0, abs=1e-12)
        assert np.sum(row > 1e-12) == 1

    def test_cyclic_periodicity(self):
        basis = build_response_basis(SplineConfig(degree=3, n_knots=8, cyclic=True), np.linspace(0, 1, 30))
        r0 = basis.design(np.array([0.0]))
        r1 = basis.design(np.array([1.0]))
        assert np.allclose(r0, r1, atol=1e-12)
        t = np.linspace(0.05, 0.95, 7)
        assert np.allclose(basis.design(t), basis.design(t + 1.0), atol=1e-12)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("cyclic", [False, True])
    def test_partition_of_unity(self, degree, cyclic):
        if cyclic and degree + 1 > 6:
            pytest.skip("needs enough knots")
        basis = build_response_basis(
            SplineConfig(degree=degree, n_knots=5, cyclic=cyclic), np.linspace(0, 1, 40)
        )
        t = np.linspace(0, 1, 101)
        assert np.abs(basis.design(t).sum(axis=1) - 1.0).max() <= 1e-10

    def test_quantile_rule_needs_distinct_points(self):
        with pytest.raises(GeometryError):
            build_response_basis(SplineConfig(degree=3, n_knots=5, knot_rule="quantile"), np.full(20, 0.5))

    def test_quantile_rule_follows_data(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([rng.uniform(0, 0.2, 200), rng.uniform(0.8, 1.0, 50)])
        basis = build_response_basis(SplineConfig(degree=3, n_knots=4, knot_rule="quantile"), t)
        assert np.sum(basis.interior_knots < 0.3) >= 3

    def test_dimensions(self):
        assert build_response_basis(SplineConfig(3, 27, cyclic=True), np.linspace(0, 1, 99)).dim == 28
        assert build_response_basis(SplineConfig(3, 4, cyclic=False), np.linspace(0, 1, 99)).dim == 8

    def test_penalty_null_spaces(self):
        cyc = build_response_basis(SplineConfig(3, 8, cyclic=True), np.linspace(0, 1, 30))
        assert np.abs(cyc.penalty("second_diff") @ np.ones(cyc.dim)).max() <= 1e-12
        open_ = build_response_basis(SplineConfig(3, 5), np.linspace(0, 1, 30))
        P = open_.penalty("second_diff")
        assert np.abs(P @ np.ones(open_.dim)).max() <= 1e-12
        assert np.allclose(open_.penalty("ridge"), np.eye(open_.dim))
        assert not open_.penalty("none").any()


def _scipy_design(basis, t):
    """Reference design: scipy's sparse design matrix, folded column by column on cyclic bases."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if basis.cfg.cyclic:
        t = t - np.floor(t)
    t = np.clip(t, basis.knots[0], basis.knots[-1])
    full = BSpline.design_matrix(t, basis.knots, basis.cfg.degree).toarray()
    if not basis.cfg.cyclic:
        return full
    folded = np.zeros((t.size, basis.dim))
    for i in range(full.shape[1]):
        folded[:, i % basis.dim] += full[:, i]
    return folded


def _kernel_cases():
    rng = np.random.default_rng(11)
    skewed = rng.beta(2, 5, 300)
    cases = [SplineConfig(degree, 10) for degree in (1, 2, 3)]
    cases += [SplineConfig(degree, 27, cyclic=True) for degree in (2, 3)]
    cases += [SplineConfig(3, 8, knot_rule="quantile"), SplineConfig(3, 5, cyclic=True, knot_rule="quantile")]
    return [pytest.param(build_response_basis(cfg, skewed), id=repr(cfg)) for cfg in cases]


class TestDesignKernel:
    """The numpy de Boor kernel against scipy's B-spline design matrix, bit for bit."""

    @pytest.mark.parametrize("basis", _kernel_cases())
    def test_bitwise_equal_to_scipy(self, basis):
        rng = np.random.default_rng(5)
        knots = basis.knots[(basis.knots >= 0.0) & (basis.knots <= 1.0)]
        t = np.concatenate(
            [
                np.linspace(0.0, 1.0, 20031),
                knots,
                rng.uniform(0.0, 1.0, 5000),
                [0.0, 1.0, -1e-12, 1.0 + 1e-12, -5e-13, 1.0 + 5e-13],
            ]
        )
        assert np.array_equal(basis.design(t), _scipy_design(basis, t))

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_small_calls_equal_scipy(self, n):
        basis = build_response_basis(SplineConfig(3, 27, cyclic=True), np.linspace(0, 1, 9))
        t = np.sort(np.random.default_rng(n).uniform(-0.5, 1.5, n))
        assert np.array_equal(basis.design(t), _scipy_design(basis, t))

    def test_cyclic_wraps_outside_unit_interval(self):
        basis = build_response_basis(SplineConfig(3, 6, cyclic=True), np.linspace(0, 1, 9))
        t = np.array([-0.3, -1e-17, 1.7, 2.0, 3.25])
        assert np.array_equal(basis.design(t), _scipy_design(basis, t))

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, cyclic, bad):
        basis = build_response_basis(SplineConfig(3, 6, cyclic=cyclic), np.linspace(0, 1, 9))
        t = np.array([0.1, 0.2, bad, 0.4, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="index 2"):
                basis.design(t)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_empty_points(self, cyclic):
        basis = build_response_basis(SplineConfig(3, 6, cyclic=cyclic), np.linspace(0, 1, 9))
        out = basis.design(np.empty(0))
        assert out.shape == (0, basis.dim)


def _band_sample(rng, basis, ks, weight_kind):
    """Curves of lengths ks whose grids hold 0, 1 and interior knots exactly, with diagonal or full SPD weights."""
    knots = basis.knots[(basis.knots > 0.0) & (basis.knots < 1.0)]
    curves = []
    for i, k in enumerate(ks):
        fixed = np.concatenate([[0.0, 1.0], rng.choice(knots, size=min(k // 3, knots.size), replace=False)])
        grid = np.sort(np.concatenate([fixed, rng.uniform(0.01, 0.99, k - fixed.size)]))
        w = random_spd(rng, k) if weight_kind == "full" else trapezoid_weights(grid)
        curves.append(CurveSample(f"c{i}", grid, smooth_curve(rng, grid), w))
    return curves


def _band_cases():
    cyclic = build_response_basis(SplineConfig(3, 9, cyclic=True), np.linspace(0, 1, 9))
    open_ = build_response_basis(SplineConfig(2, 6), np.linspace(0, 1, 9))
    return [
        pytest.param(cyclic, [7, 15, 11, 9], "diagonal", id="cyclic-diagonal"),
        pytest.param(open_, [12, 6, 20], "diagonal", id="open-diagonal"),
        pytest.param(cyclic, [14, 14, 14], "full", id="cyclic-full"),
        pytest.param(open_, [9, 9], "full", id="open-full"),
    ]


class TestDesignBand:
    """The packed sample's band operations against the dense design formulas, to rel 1e-12."""

    @staticmethod
    def _close(a, b):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)

    def _check(self, packed, B, curves, rng):
        """field, project, design_grams and B x of ``packed`` against the dense stacked design B."""
        cuts = packed.offsets[1:-1]
        Bs = np.split(B, cuts)
        Ws = [np.diag(c.weights) if c.weights.ndim == 1 else c.weights for c in curves]
        n, m0 = len(curves), B.shape[1]
        f = rng.normal(size=(n, m0)) + 1j * rng.normal(size=(n, m0))
        self._close(packed.field(f), np.concatenate([Bi @ fi for Bi, fi in zip(Bs, f)]))
        v = rng.normal(size=B.shape[0]) + 1j * rng.normal(size=B.shape[0])
        self._close(packed.project(v), np.array([Bi.T @ (Wi @ vi) for Bi, Wi, vi in zip(Bs, Ws, np.split(v, cuts))]))
        self._close(packed.design_grams(), np.array([Bi.T @ Wi @ Bi for Bi, Wi in zip(Bs, Ws)]))
        x = rng.normal(size=m0) + 1j * rng.normal(size=m0)
        self._close(packed.band @ x, B @ x)
        X = rng.normal(size=(m0, 4)) + 1j * rng.normal(size=(m0, 4))
        self._close(packed.band @ X, B @ X)

    @pytest.mark.parametrize("basis, ks, weight_kind", _band_cases())
    def test_band_matches_dense_design(self, basis, ks, weight_kind):
        rng = np.random.default_rng(len(ks) + basis.dim)
        curves = _band_sample(rng, basis, ks, weight_kind)
        band = sample_design(basis, curves)
        t = np.concatenate([c.grid for c in curves])
        B = _scipy_design(basis, t)
        assert np.array_equal(band.dense(), B)
        self._check(PackedSample.of(curves, band), B, curves, rng)

    @pytest.mark.parametrize("basis, ks, weight_kind", _band_cases()[:1])
    def test_pole_evaluations_match_dense_design(self, basis, ks, weight_kind):
        from shapeboost.boost import _PoleSample

        rng = np.random.default_rng(3)
        curves = _band_sample(rng, basis, ks, weight_kind)
        pole = PoleCoef(rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim), basis)
        B = _scipy_design(basis, np.concatenate([c.grid for c in curves]))
        for kind in (GeometryKind.FORM, GeometryKind.SHAPE):
            ps = _PoleSample.of(curves, pole, kind, coef_mode=False)
            self._close(ps.p_rep, ps.packed.pole_rep(B @ pole.coef, kind))
            self._close(ps.predictor(np.eye(ps.transform.m)[: len(curves)]),
                        np.concatenate([Bi @ z for Bi, z in zip(np.split(B, ps.packed.offsets[1:-1]),
                                                                   ps.transform.complex_columns.T)]))

    def test_coefficient_mode_band_is_identity(self):
        rng = np.random.default_rng(8)
        basis = build_response_basis(SplineConfig(3, 7, cyclic=True), np.linspace(0, 1, 9))
        grid = np.arange(basis.dim) / (basis.dim - 1)
        curves = [CurveSample(f"c{i}", grid, smooth_curve(rng, grid), basis.gram) for i in range(3)]
        band = sample_design(basis, curves, coef_mode=True)
        assert band.cols.shape == (3 * basis.dim, 1) and np.all(band.vals == 1.0)
        B = np.tile(np.eye(basis.dim), (3, 1))
        assert np.array_equal(band.dense(), B)
        packed = PackedSample.of(curves, band)
        self._check(packed, B, curves, rng)
        assert np.array_equal(packed.design_grams(), np.stack([basis.gram] * 3))

    def test_knot_points_keep_zero_slots(self):
        # on a knot the basis function whose support ends there keeps its slot with the value 0,
        # and no row names a column twice, so no column is counted twice
        basis = build_response_basis(SplineConfig(3, 9, cyclic=True), np.linspace(0, 1, 9))
        band = basis.band(np.concatenate([basis.interior_knots, [0.0, 1.0]]))
        assert np.all(np.sum(band.vals == 0.0, axis=1) >= 1)
        ordered = np.sort(band.cols, axis=1)
        assert np.all(ordered[:, 1:] != ordered[:, :-1])
        assert np.array_equal(band.dense(), _scipy_design(basis, np.concatenate([basis.interior_knots, [0.0, 1.0]])))

    def test_padding_slot_must_be_zero(self):
        # a padding slot (here: column 0) adds nothing only with the value 0; padding with
        # column 0's own value counts that column twice
        rng = np.random.default_rng(4)
        basis = build_response_basis(SplineConfig(2, 6), np.linspace(0, 1, 9))
        curves = _band_sample(rng, basis, [12, 6, 20], "diagonal")
        band = sample_design(basis, curves)
        B = band.dense()
        zero_col = np.zeros((B.shape[0], 1), dtype=int)
        padded = DesignBand(np.hstack([band.cols, zero_col]), np.hstack([band.vals, np.zeros_like(zero_col, float)]), band.dim)
        assert np.array_equal(padded.dense(), B)
        self._check(PackedSample.of(curves, padded), B, curves, rng)
        doubled = DesignBand(padded.cols, np.hstack([band.vals, B[:, :1]]), band.dim)
        with pytest.raises(AssertionError):
            self._check(PackedSample.of(curves, doubled), B, curves, rng)


@pytest.mark.parametrize("module", ["shapeboost", "shapeboost.cli"])
def test_fresh_import_skips_interpolate_and_svg(module):
    # no scipy module at all, and no OpenBLAS lookup: the BLAS pin reads /proc/self/maps on its first call
    code = (
        "import builtins, ctypes, sys\n"
        "seen = []\n"
        "real_open, real_cdll = builtins.open, ctypes.CDLL.__init__\n"
        "def spy_open(file, *args, **kwargs):\n"
        "    seen.append(f'open {file}')\n"
        "    return real_open(file, *args, **kwargs)\n"
        "def spy_cdll(self, name, *args, **kwargs):\n"
        "    seen.append(f'CDLL {name}')\n"
        "    real_cdll(self, name, *args, **kwargs)\n"
        "builtins.open, ctypes.CDLL.__init__ = spy_open, spy_cdll\n"
        f"import {module}\n"
        "seen += [m for m in sys.modules if m.startswith('scipy') or m == 'shapeboost.svgplot']\n"
        "print(sorted(seen))\n"
    )
    src = str(Path(shapeboost.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def _sample_and_pole(rng, n=5, kind=GeometryKind.FORM, m_knots=6):
    basis = build_response_basis(SplineConfig(3, m_knots, cyclic=True), np.linspace(0, 1, 50))
    coef = np.linalg.lstsq(
        basis.design(np.linspace(0, 1, 80, endpoint=False)),
        smooth_curve(rng, np.linspace(0, 1, 80, endpoint=False)),
        rcond=None,
    )[0]
    pole = PoleCoef(coef=coef, basis=basis)
    sample = []
    for i in range(n):
        grid = irregular_grid(rng, int(rng.integers(10, 30)))
        from shapeboost.geometry import trapezoid_weights

        sample.append(CurveSample(f"c{i}", grid, smooth_curve(rng, grid), trapezoid_weights(grid)))
    return basis, pole, sample


class TestConstraints:
    def test_single_landmark_config_matches_hand_sums(self):
        # one landmark configuration with uniform weights: C entries are finite sums
        basis = build_response_basis(SplineConfig(degree=1, n_knots=2), np.linspace(0, 1, 9))
        vals = np.array([1 + 1j, 2 - 1j, -1 + 0.5j, 0.5 - 0.5j])
        curve = CurveSample("lm", np.arange(4) / 3, vals, uniform_weights(4))
        coef = np.linalg.lstsq(basis.design(curve.grid), vals, rcond=None)[0]
        pole = PoleCoef(coef=coef, basis=basis)
        C = constraint_matrix([curve], pole, GeometryKind.FORM)
        # oracle: direct sums over the grid
        B = basis.design(curve.grid)
        w = curve.weights
        p = B @ coef
        p_c = p - np.sum(w * p) / np.sum(w)
        p_hat = p_c / np.sqrt(np.sum(w * np.abs(p_c) ** 2))
        ones = np.ones(4) / np.sqrt(np.sum(w))
        zetas = [ones, 1j * ones, 1j * p_hat]
        m0 = basis.dim
        for r, z in enumerate(zetas):
            for l in range(m0):
                entry = np.sum(B[:, l] * w * z)
                assert C[r, l] == pytest.approx(entry.real, abs=1e-12)
                assert C[r, m0 + l] == pytest.approx(entry.imag, abs=1e-12)

    def test_rank_three_form_four_shape(self, rng):
        basis, pole, sample = _sample_and_pole(rng)
        C_form = constraint_matrix(sample, pole, GeometryKind.FORM)
        C_shape = constraint_matrix(sample, pole, GeometryKind.SHAPE)
        assert np.linalg.matrix_rank(C_form, tol=1e-8) == 3
        assert np.linalg.matrix_rank(C_shape, tol=1e-8) == 4

    def test_transform_dimensions(self, rng):
        basis, pole, sample = _sample_and_pole(rng)
        m0 = basis.dim
        for kind, r in [(GeometryKind.FORM, 3), (GeometryKind.SHAPE, 4)]:
            Z = nullspace_transform(constraint_matrix(sample, pole, kind))
            assert Z.m == 2 * m0 - r


class TestPackedConstraints:
    """The fit's constraint matrix, from packed passes, against the per-curve loop of ``constraint_matrix``."""

    @pytest.mark.parametrize("weights", ["trapezoid", "uniform", "full"])
    @pytest.mark.parametrize("kind", [GeometryKind.FORM, GeometryKind.SHAPE])
    def test_matches_per_curve_loop(self, rng, kind, weights):
        basis, pole, sample = _sample_and_pole(rng, n=7)
        if weights == "uniform":
            sample = [CurveSample(c.id, c.grid, c.values, uniform_weights(c.k)) for c in sample]
        elif weights == "full":  # full matrices need one k: the first curve's grid for all
            grid = sample[0].grid
            sample = [CurveSample(c.id, grid, smooth_curve(rng, grid), random_spd(rng, grid.size)) for c in sample]
        else:
            assert len({c.k for c in sample}) > 1  # ragged k
        packed = PackedSample.of(sample, sample_design(basis, sample))
        C = packed_constraint_matrix(packed, pole, kind)
        ref = constraint_matrix(sample, pole, kind)
        assert C.shape == ref.shape == (4 if kind is GeometryKind.SHAPE else 3, 2 * basis.dim)
        assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_coefficient_mode_matches_per_curve_loop(self, rng):
        basis = build_response_basis(SplineConfig(3, 6, cyclic=True), np.empty(0))
        grid = np.linspace(0, 1, basis.dim)
        sample = [CurveSample(f"g{i}", grid, smooth_curve(rng, grid), basis.gram) for i in range(5)]
        pole = PoleCoef(coef=smooth_curve(rng, grid), basis=basis)
        designs = [np.eye(basis.dim)] * len(sample)
        packed = PackedSample.of(sample, sample_design(basis, sample, coef_mode=True))
        for kind in GeometryKind:
            ref = constraint_matrix(sample, pole, kind, designs=designs)
            assert np.abs(packed_constraint_matrix(packed, pole, kind) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_degenerate_pole_names_the_curve(self):
        # degree-1 hats with equal coefficients on [0.2, 0.6]: the pole is constant on curve "flat"'s grid
        basis = build_response_basis(SplineConfig(degree=1, n_knots=4), np.empty(0))
        coef = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 1j])
        pole = PoleCoef(coef=coef, basis=basis)
        good = np.linspace(0, 1, 9)
        flat = np.array([0.25, 0.4, 0.55])
        sample = [CurveSample("ok", good, np.exp(2j * np.pi * good), trapezoid_weights(good)),
                  CurveSample("flat", flat, np.array([1, 2j, 3]), trapezoid_weights(flat)),
                  CurveSample("flat2", flat, np.array([1, 2j, 3]), trapezoid_weights(flat))]
        packed = PackedSample.of(sample, sample_design(basis, sample))
        for kind in GeometryKind:
            with pytest.raises(GeometryError, match=r"^curve 'flat': pole is degenerate on this grid$"):
                packed_constraint_matrix(packed, pole, kind)
            with pytest.raises(GeometryError, match=r"^curve 'flat': pole is degenerate on this grid$"):
                constraint_matrix(sample, pole, kind)


class TestNullspaceTransform:
    def test_zero_constraints_identity(self):
        tr = nullspace_transform(np.zeros((2, 8)))
        assert np.allclose(tr.Z, np.eye(8))

    def test_canonical_row(self):
        C = np.zeros((1, 6))
        C[0, 0] = 1.0
        Z = nullspace_transform(C).Z
        assert Z.shape == (6, 5)
        assert np.abs(Z[0]).max() <= 1e-12

    def test_random_constraints(self, rng):
        C = rng.normal(size=(3, 20))
        tr = nullspace_transform(C)
        assert np.abs(C @ tr.Z).max() <= 1e-10
        assert np.allclose(tr.Z.T @ tr.Z, np.eye(tr.m), atol=1e-12)

    def test_rank_deficient_warns(self, rng):
        row = rng.normal(size=10)
        C = np.vstack([row, 2 * row])
        with pytest.warns(UserWarning):
            tr = nullspace_transform(C)
        assert tr.m == 9

    def test_zero_constraints_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nullspace_transform(np.zeros((3, 6))).m == 6

    def test_absolute_tolerance_drops_small_singular_values(self):
        # the covariate constraints cut at an absolute floor as well as at RANK_TOL relative
        C = np.diag([1.0, 1e-8, 0.0])
        Z, rank = nullspace(C)
        assert rank == 2 and np.allclose(Z, [[0.0], [0.0], [1.0]])
        Z, rank = nullspace(C, abs_tol=1e-6)
        assert rank == 1 and Z.shape == (3, 2) and np.abs(Z[0]).max() == 0.0


class TestTangentDesign:
    def test_unconstrained_columns(self, rng):
        basis = build_response_basis(SplineConfig(2, 4), np.linspace(0, 1, 20))
        m0 = basis.dim
        tr = TangentTransform(np.eye(2 * m0))
        grid = np.linspace(0, 1, 11)
        D = tangent_design(grid, tr, basis)
        B = basis.design(grid)
        assert np.allclose(D[:, :m0], B)
        assert np.allclose(D[:, m0:], 1j * B)

    def test_constraints_hold_on_average(self, rng):
        basis, pole, sample = _sample_and_pole(rng)
        kind = GeometryKind.FORM
        tr = nullspace_transform(constraint_matrix(sample, pole, kind))
        # average <1, d_r> over the per-curve inner products is ~0
        m = tr.m
        acc = np.zeros(m, dtype=complex)
        for c in sample:
            D = tangent_design(c.grid, tr, basis)
            ones = np.ones(c.k) / np.sqrt(np.sum(c.weights))
            acc += np.array([empirical_inner(ones, D[:, r], c.weights) for r in range(m)])
        assert np.abs(acc / len(sample)).max() <= 1e-8

    def test_linearity_in_transform(self, rng):
        basis = build_response_basis(SplineConfig(2, 3), np.linspace(0, 1, 15))
        Z = np.linalg.qr(rng.normal(size=(2 * basis.dim, 4)))[0]
        grid = np.linspace(0, 1, 9)
        D1 = tangent_design(grid, TangentTransform(Z), basis)
        D2 = tangent_design(grid, TangentTransform(2.5 * Z), basis)
        assert np.allclose(D2, 2.5 * D1)

    def test_grid_outside_unit_interval_rejected(self, rng):
        basis = build_response_basis(SplineConfig(2, 3), np.linspace(0, 1, 15))
        tr = TangentTransform(np.eye(2 * basis.dim))
        with pytest.raises(GeometryError):
            tangent_design(np.array([-0.2, 0.5]), tr, basis)


class TestPenaltyBlock:
    def test_transformed_penalty_psd_and_formula(self, rng):
        basis, pole, sample = _sample_and_pole(rng)
        tr = nullspace_transform(constraint_matrix(sample, pole, GeometryKind.SHAPE))
        pb = PenaltyBlock.build(basis, tr, "second_diff")
        m0 = basis.dim
        dense = tr.Z.T @ np.kron(np.eye(2), pb.P0) @ tr.Z
        assert np.allclose(pb.P_perp, dense, atol=1e-12)
        assert np.linalg.eigvalsh(pb.P_perp).min() >= -1e-10

    def test_orthonormal_exactness(self, rng):
        basis, pole, sample = _sample_and_pole(rng)
        tr = nullspace_transform(constraint_matrix(sample, pole, GeometryKind.FORM))
        assert np.abs(tr.Z.T @ tr.Z - np.eye(tr.m)).max() <= 1e-12


class TestPoleCoef:
    def test_centering(self, rng):
        basis, pole, sample = _sample_and_pole(rng)
        designs = [curve_design(basis, c) for c in sample]
        centered = center_pole(pole, PackedSample.of(sample, sample_design(basis, sample)))
        num = 0.0 + 0.0j
        for c, B in zip(sample, designs):
            ones = np.ones(c.k)
            num += empirical_inner(ones, B @ centered.coef, c.weights)
        assert abs(num / len(sample)) <= 1e-10

    def test_coef_mode_design_is_identity(self, rng):
        basis = build_response_basis(SplineConfig(2, 3), np.linspace(0, 1, 15))
        vals = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        c = CurveSample("coef", np.arange(basis.dim) / (basis.dim - 1), vals, basis.gram)
        assert np.allclose(curve_design(basis, c, coef_mode=True), np.eye(basis.dim))
        with pytest.raises(GeometryError):
            curve_design(basis, CurveSample("bad", np.linspace(0, 1, 4), vals[:4], uniform_weights(4)), coef_mode=True)
