import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeboost.geometry import (
    AntipodalTransport,
    CurveSample,
    DegenerateAlignment,
    GeometryError,
    GeometryKind,
    PackedSample,
    TangentEvals,
    empirical_inner,
    empirical_norm,
    exp_map,
    geodesic_dist,
    log_map,
    parallel_transport,
    representative,
    tangent_project,
    trapezoid_weights,
    uniform_weights,
)

from conftest import curve_from, irregular_grid, random_pole_and_tangent, smooth_curve

KINDS = [GeometryKind.FORM, GeometryKind.SHAPE]


class TestEmpiricalInner:
    def test_unit_norm_by_construction(self):
        a = np.array([1.0, 1j])
        assert empirical_inner(a, a, np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_trapezoid_weights_unit_interval(self):
        w = trapezoid_weights(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(w, [0.25, 0.5, 0.25])

    def test_uniform_weights(self):
        assert np.allclose(uniform_weights(4), 0.25)

    def test_gram_mode_matches_quadrature_oracle(self):
        # spline Gram entry computed by an independent numerical quadrature
        from scipy.integrate import quad

        from shapeboost.basis import SplineConfig, build_response_basis

        basis = build_response_basis(SplineConfig(degree=2, n_knots=1), np.linspace(0, 1, 9))
        assert basis.dim == 4
        G = basis.gram

        def bfun(i):
            return lambda t: basis.design(np.array([t]))[0, i]

        oracle = quad(lambda t: bfun(0)(t) * bfun(0)(t), 0, 1, limit=200)[0]
        assert G[0, 0] == pytest.approx(oracle, abs=1e-10)
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert empirical_inner(e1, e1, G).real == pytest.approx(oracle, abs=1e-10)

    def test_length_mismatch_raises(self):
        with pytest.raises(GeometryError):
            empirical_inner(np.ones(3), np.ones(4), np.ones(3))

    def test_non_spd_weight_matrix_rejected(self):
        W = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(GeometryError):
            CurveSample("bad", np.array([0.0, 0.5, 1.0]), np.array([1, 2j, 3]), np.eye(3) * 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hermitian_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 40))
        grid = irregular_grid(rng, k)
        w = trapezoid_weights(grid)
        a = smooth_curve(rng, grid)
        b = smooth_curve(rng, grid)
        assert empirical_inner(a, b, w) == pytest.approx(np.conj(empirical_inner(b, a, w)))
        assert empirical_inner(a, a, w).real > 0


class TestRepresentative:
    def test_self_alignment(self, rng):
        for kind in KINDS:
            grid = irregular_grid(rng, 20)
            w = trapezoid_weights(grid)
            p = smooth_curve(rng, grid)
            rep = representative(curve_from(p, grid, w), p, kind)
            assert rep.rotation == pytest.approx(1.0)
            pole_rep = PackedSample([w], ["pole"]).pole_rep(p, kind)
            assert np.allclose(rep.values, pole_rep, atol=1e-12)

    def test_rotation_translation_invariance(self, rng):
        for kind in KINDS:
            grid = irregular_grid(rng, 25)
            w = trapezoid_weights(grid)
            p = smooth_curve(rng, grid)
            omega = 0.83
            y = np.exp(1j * omega) * p + (2.0 - 1.5j)
            rep = representative(curve_from(y, grid, w), p, kind)
            ref = representative(curve_from(p, grid, w), p, kind)
            assert rep.rotation == pytest.approx(np.exp(-1j * omega), abs=1e-10)
            assert np.allclose(rep.values, ref.values, atol=1e-10)

    def test_rotation_grid_search_oracle(self, rng):
        # aligned representative minimizes ||u y - p|| over all rotations
        grid = irregular_grid(rng, 30)
        w = trapezoid_weights(grid)
        p = smooth_curve(rng, grid)
        y = smooth_curve(rng, grid)
        rep = representative(curve_from(y, grid, w), p, GeometryKind.FORM)
        from shapeboost.geometry import center

        y_c, p_c = center(y, w), center(p, w)
        best = min(
            empirical_norm(np.exp(1j * om) * y_c - p_c, w)
            for om in np.linspace(0, 2 * np.pi, 3600, endpoint=False)
        )
        assert empirical_norm(rep.values - p_c, w) <= best + 1e-6

    def test_degenerate_alignment_raises(self):
        grid = np.array([0.0, 0.5, 1.0])
        w = uniform_weights(3)
        p = np.array([1.0 + 0j, 0.0, -1.0])
        y = np.array([1.0 + 0j, 0.0, 1.0])  # centered y is orthogonal to centered p
        with pytest.raises(DegenerateAlignment):
            representative(curve_from(y, grid, w, "orth"), p, GeometryKind.FORM)


class TestGeodesicDist:
    def test_full_similarity_invariance_shape(self, rng):
        grid = irregular_grid(rng, 22)
        w = trapezoid_weights(grid)
        p = smooth_curve(rng, grid)
        y = 2.5 * np.exp(0.7j) * p + (1 - 2j)
        assert geodesic_dist(curve_from(y, grid, w), p, GeometryKind.SHAPE) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_representatives_give_pi_half(self):
        grid = np.linspace(0, 1, 4)
        w = uniform_weights(4)
        p = np.array([1, 1j, -1, -1j], dtype=complex)
        y = np.array([1, -1j, -1, 1j], dtype=complex)  # <y, p> = 0 after centering
        d = geodesic_dist(curve_from(y, grid, w), p, GeometryKind.SHAPE)
        assert d == pytest.approx(np.pi / 2, abs=1e-10)

    def test_form_tangent_offset(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.FORM, k=40, norm=0.7)
        y = beta.pole_evals + beta.values
        d = geodesic_dist(curve_from(y, grid, w), p, GeometryKind.FORM)
        assert d == pytest.approx(0.7, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariance_under_group_action(self, seed):
        rng = np.random.default_rng(seed)
        grid = irregular_grid(rng, int(rng.integers(4, 50)))
        w = trapezoid_weights(grid)
        p = smooth_curve(rng, grid)
        y = smooth_curve(rng, grid)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi))
        gam = rng.normal() + 1j * rng.normal()
        for kind in KINDS:
            d0 = geodesic_dist(curve_from(y, grid, w), p, kind)
            lam = rng.uniform(0.5, 2.0) if kind is GeometryKind.SHAPE else 1.0
            d1 = geodesic_dist(curve_from(lam * u * y + gam, grid, w), p, kind)
            assert abs(d1 - d0) <= 1e-8 * max(1.0, d0)


class TestExpLog:
    def test_zero_tangent_is_identity(self, rng):
        for kind in KINDS:
            grid, w, p, beta = random_pole_and_tangent(rng, kind, k=25)
            zero = TangentEvals(grid, np.zeros_like(beta.values), beta.pole_evals, kind, w)
            assert np.allclose(exp_map(p, zero, kind), beta.pole_evals, atol=1e-12)

    def test_shape_quarter_circle(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.SHAPE, k=30, norm=np.pi / 2)
        out = exp_map(p, beta, GeometryKind.SHAPE)
        assert np.allclose(out, beta.values / beta.norm() * (np.pi / 2) / (np.pi / 2), atol=1e-9)

    def test_exp_distance_matches_norm(self, rng):
        for kind in KINDS:
            for _ in range(25):
                grid, w, p, beta = random_pole_and_tangent(rng, kind)
                y = exp_map(p, beta, kind)
                d = geodesic_dist(curve_from(y, grid, w), p, kind)
                assert d == pytest.approx(beta.norm(), abs=1e-8)

    def test_cut_locus_rejected(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.SHAPE, k=20, norm=1.0)
        big = TangentEvals(grid, beta.values * (np.pi / beta.norm()), beta.pole_evals, GeometryKind.SHAPE, w)
        with pytest.raises(GeometryError):
            exp_map(p, big, GeometryKind.SHAPE)

    def test_log_of_pole_is_zero(self, rng):
        for kind in KINDS:
            grid = irregular_grid(rng, 18)
            w = trapezoid_weights(grid)
            p = smooth_curve(rng, grid)
            lg = log_map(p, curve_from(1.3 * np.exp(0.2j) * p + 1j if kind is GeometryKind.SHAPE else p + 0.5, grid, w), kind)
            assert lg.norm() <= 1e-10

    def test_round_trip(self, rng):
        for kind in KINDS:
            for _ in range(30):
                grid, w, p, beta = random_pole_and_tangent(rng, kind)
                if kind is GeometryKind.SHAPE and beta.norm() > np.pi / 2 - 0.1:
                    continue
                y = exp_map(p, beta, kind)
                back = log_map(p, curve_from(y, grid, w), kind)
                err = empirical_norm(back.values - beta.values, w)
                assert err <= 1e-8 * max(1.0, beta.norm())

    def test_form_flat_case_exact(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.FORM, k=35, norm=0.4)
        y = beta.pole_evals + beta.values
        lg = log_map(p, curve_from(y, grid, w), GeometryKind.FORM)
        assert np.allclose(lg.values, beta.values, atol=1e-10)

    def test_log_output_is_tangent(self, rng):
        for kind in KINDS:
            grid = irregular_grid(rng, 40)
            w = trapezoid_weights(grid)
            p = smooth_curve(rng, grid)
            y = smooth_curve(rng, grid)
            lg = log_map(p, curve_from(y, grid, w), kind)
            lg.validate()
            d = geodesic_dist(curve_from(y, grid, w), p, kind)
            assert lg.norm() == pytest.approx(d, abs=1e-8)


class TestParallelTransport:
    def test_identity_transport(self, rng):
        for kind in KINDS:
            grid, w, p, beta = random_pole_and_tangent(rng, kind, k=20)
            out = parallel_transport(beta.pole_evals, beta.pole_evals, beta, kind)
            assert np.allclose(out.values, beta.values, atol=1e-12)

    def test_geodesic_velocity_identity(self, rng):
        for kind in KINDS:
            for _ in range(10):
                grid = irregular_grid(rng, int(rng.integers(5, 60)))
                w = trapezoid_weights(grid)
                p = smooth_curve(rng, grid)
                y = smooth_curve(rng, grid)
                lg = log_map(p, curve_from(y, grid, w), kind)
                rep_y = representative(curve_from(y, grid, w), p, kind).values
                moved = parallel_transport(lg.pole_evals, rep_y, lg, kind)
                # Log_y(p) expressed at the same aligned representative of [y]
                back = log_map(rep_y, curve_from(p, grid, w), kind)
                assert empirical_norm(moved.values + back.values, w) <= 1e-8

    def test_norm_preservation_100_cases(self, rng):
        for _ in range(50):
            for kind in KINDS:
                grid = irregular_grid(rng, int(rng.integers(4, 50)))
                w = trapezoid_weights(grid)
                p = smooth_curve(rng, grid)
                y = smooth_curve(rng, grid)
                eps = tangent_project(smooth_curve(rng, grid), y, w, kind, grid)
                rep_p = representative(curve_from(p, grid, w), y, kind).values
                src = eps.pole_evals
                out = parallel_transport(src, rep_p, eps, kind)
                assert abs(out.norm() - eps.norm()) <= 1e-10 * max(1.0, eps.norm())
                out.validate()

    def test_antipodal_rejected(self):
        grid = np.linspace(0, 1, 4)
        w = uniform_weights(4)
        p = np.array([1, 1j, -1, -1j], dtype=complex)
        eps = tangent_project(np.array([0, 1, 0, -1.0]), p, w, GeometryKind.SHAPE, grid)
        with pytest.raises(AntipodalTransport):
            parallel_transport(eps.pole_evals, -eps.pole_evals, eps, GeometryKind.SHAPE)


class TestCurveSample:
    def test_rejects_short_and_nonmonotone(self):
        with pytest.raises(GeometryError):
            CurveSample("a", np.array([0.0, 1.0]), np.array([1, 2j]), np.array([0.5, 0.5]))
        with pytest.raises(GeometryError):
            CurveSample("b", np.array([0.0, 0.6, 0.5]), np.array([1, 2j, 3]), np.ones(3) / 3)

    @pytest.mark.parametrize("bad", ["grid", "values", "weights"])
    def test_rejects_non_finite(self, bad):
        grid, values, w = np.array([0.0, 0.5, 1.0]), np.array([1, 2j, 3.0]), np.ones(3) / 3
        if bad == "grid":
            grid = np.array([0.0, np.nan, 1.0])
        elif bad == "values":
            values = np.array([1, np.nan * 1j, 3.0])
        else:
            w = np.array([np.inf, 1.0, 1.0])
        with pytest.raises(GeometryError):
            CurveSample("nf", grid, values, w)

    def test_rejects_constant_values(self):
        with pytest.raises(GeometryError):
            CurveSample("c", np.array([0.0, 0.5, 1.0]), np.array([2 + 1j] * 3), np.ones(3) / 3)

    def test_landmark_mapping(self):
        c = CurveSample.from_landmarks("lm", np.array([0, 1j, 2.0, 3j]))
        assert np.allclose(c.grid, [0, 1 / 3, 2 / 3, 1.0])
        assert np.allclose(c.weights, 0.25)
