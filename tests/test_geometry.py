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
    empirical_inner,
    empirical_norm,
    log_map,
    parallel_transport,
    trapezoid_weights,
    uniform_weights,
)

from conftest import curve_from, irregular_grid, random_pole_and_tangent, random_spd, smooth_curve, tangent_part

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
            ps = PackedSample.of([curve_from(p, grid, w)])
            pole_rep = ps.pole_rep(p, kind)
            u, _ = ps.align(ps.y_c, pole_rep)
            assert u[0] == pytest.approx(1.0)
            assert np.allclose(ps.pole_rep(u[0] * ps.y_c, kind), pole_rep, atol=1e-12)

    def test_rotation_translation_invariance(self, rng):
        for kind in KINDS:
            grid = irregular_grid(rng, 25)
            w = trapezoid_weights(grid)
            p = smooth_curve(rng, grid)
            omega = 0.83
            y = np.exp(1j * omega) * p + (2.0 - 1.5j)
            # the curve and the pole itself, aligned to the pole in one packed sample
            ps = PackedSample.of([curve_from(y, grid, w), curve_from(p, grid, w)])
            u, _ = ps.align(ps.y_c, ps.pole_rep(np.tile(p, 2), kind))
            assert u[0] == pytest.approx(np.exp(-1j * omega), abs=1e-10)
            rep = ps.pole_rep(u[ps.seg] * ps.y_c, kind)
            assert np.allclose(rep[ps.seg == 0], rep[ps.seg == 1], atol=1e-10)

    def test_rotation_grid_search_oracle(self, rng):
        # aligned representative minimizes ||u y - p|| over all rotations
        grid = irregular_grid(rng, 30)
        w = trapezoid_weights(grid)
        p = smooth_curve(rng, grid)
        y = smooth_curve(rng, grid)
        ps = PackedSample.of([curve_from(y, grid, w)])
        u, _ = ps.align(ps.y_c, ps.pole_rep(p, GeometryKind.FORM))
        from shapeboost.geometry import center

        y_c, p_c = center(y, w), center(p, w)
        best = min(
            empirical_norm(np.exp(1j * om) * y_c - p_c, w)
            for om in np.linspace(0, 2 * np.pi, 3600, endpoint=False)
        )
        assert empirical_norm(u[0] * ps.y_c - p_c, w) <= best + 1e-6

    def test_degenerate_alignment_raises(self):
        grid = np.array([0.0, 0.5, 1.0])
        w = uniform_weights(3)
        p = np.array([1.0 + 0j, 0.0, -1.0])
        y = np.array([1.0 + 0j, 0.0, 1.0])  # centered y is orthogonal to centered p
        ps = PackedSample.of([curve_from(y, grid, w, "orth")])
        with pytest.raises(DegenerateAlignment):
            ps.align(ps.y_c, ps.pole_rep(p, GeometryKind.FORM), "rotation alignment undefined")


class TestGeodesicDist:
    def test_full_similarity_invariance_shape(self, rng):
        grid = irregular_grid(rng, 22)
        w = trapezoid_weights(grid)
        p = smooth_curve(rng, grid)
        y = 2.5 * np.exp(0.7j) * p + (1 - 2j)
        ps = PackedSample.of([curve_from(y, grid, w)])
        _, d = ps.log(ps.pole_rep(p, GeometryKind.SHAPE), GeometryKind.SHAPE, what=None)
        assert d[0] == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_representatives_give_pi_half(self):
        grid = np.linspace(0, 1, 4)
        w = uniform_weights(4)
        p = np.array([1, 1j, -1, -1j], dtype=complex)
        y = np.array([1, -1j, -1, 1j], dtype=complex)  # <y, p> = 0 after centering
        ps = PackedSample.of([curve_from(y, grid, w)])
        # the distance stays defined where the aligning rotation is not: no alignment check
        _, d = ps.log(ps.pole_rep(p, GeometryKind.SHAPE), GeometryKind.SHAPE, what=None)
        assert d[0] == pytest.approx(np.pi / 2, abs=1e-10)

    def test_form_tangent_offset(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.FORM, k=40, norm=0.7)
        y = beta.pole_evals + beta.values
        ps = PackedSample.of([curve_from(y, grid, w)])
        _, d = ps.log(ps.pole_rep(p, GeometryKind.FORM), GeometryKind.FORM, what=None)
        assert d[0] == pytest.approx(0.7, abs=1e-8)

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
            lam = rng.uniform(0.5, 2.0) if kind is GeometryKind.SHAPE else 1.0
            ps = PackedSample.of([curve_from(y, grid, w), curve_from(lam * u * y + gam, grid, w)])
            _, (d0, d1) = ps.log(ps.pole_rep(np.tile(p, 2), kind), kind, what=None)
            assert abs(d1 - d0) <= 1e-8 * max(1.0, d0)


class TestExpLog:
    def test_zero_tangent_is_identity(self, rng):
        for kind in KINDS:
            grid, w, p, beta = random_pole_and_tangent(rng, kind, k=25)
            out = PackedSample([w], ["beta"]).exp(beta.pole_evals, np.zeros_like(beta.values), kind)
            assert np.allclose(out, beta.pole_evals, atol=1e-12)

    def test_shape_quarter_circle(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.SHAPE, k=30, norm=np.pi / 2)
        out = PackedSample([w], ["beta"]).exp(beta.pole_evals, beta.values, GeometryKind.SHAPE)
        assert np.allclose(out, beta.values / beta.norm() * (np.pi / 2) / (np.pi / 2), atol=1e-9)

    def test_exp_distance_matches_norm(self, rng):
        for kind in KINDS:
            for _ in range(25):
                grid, w, p, beta = random_pole_and_tangent(rng, kind)
                y = PackedSample([w], ["beta"]).exp(beta.pole_evals, beta.values, kind)
                ps = PackedSample.of([curve_from(y, grid, w)])
                _, d = ps.log(ps.pole_rep(p, kind), kind, what=None)
                assert d[0] == pytest.approx(beta.norm(), abs=1e-8)

    def test_cut_locus_rejected(self, rng):
        grid, w, p, beta = random_pole_and_tangent(rng, GeometryKind.SHAPE, k=20, norm=1.0)
        big = beta.values * (np.pi / beta.norm())
        with pytest.raises(GeometryError):
            PackedSample([w], ["beta"]).exp(beta.pole_evals, big, GeometryKind.SHAPE)

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
                y = PackedSample([w], ["beta"]).exp(beta.pole_evals, beta.values, kind)
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
            ps = PackedSample.of([curve_from(y, grid, w)])
            _, d = ps.log(ps.pole_rep(p, kind), kind, what=None)
            assert lg.norm() == pytest.approx(d[0], abs=1e-8)


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
                ps = PackedSample.of([curve_from(y, grid, w)])
                u, _ = ps.align(ps.y_c, ps.pole_rep(p, kind))
                rep_y = ps.pole_rep(u[0] * ps.y_c, kind)
                moved = parallel_transport(lg.pole_evals, rep_y, lg, kind)
                # Log_y(p) expressed at the same aligned representative of [y]
                back = log_map(rep_y, curve_from(p, grid, w), kind)
                assert empirical_norm(moved.values + back.values, w) <= 1e-8

    def test_norm_preservation_100_cases(self, rng):
        for _ in range(50):
            for kind in KINDS:
                # a random tangent eps at [y], and [p] aligned to y
                grid, w, y, eps = random_pole_and_tangent(rng, kind, k=int(rng.integers(4, 50)))
                ps = PackedSample.of([curve_from(smooth_curve(rng, grid), grid, w)])
                u, _ = ps.align(ps.y_c, eps.pole_evals)
                rep_p = ps.pole_rep(u[0] * ps.y_c, kind)
                src = eps.pole_evals
                out = parallel_transport(src, rep_p, eps, kind)
                assert abs(out.norm() - eps.norm()) <= 1e-10 * max(1.0, eps.norm())
                out.validate()

    def test_antipodal_rejected(self):
        grid = np.linspace(0, 1, 4)
        w = uniform_weights(4)
        p = np.array([1, 1j, -1, -1j], dtype=complex)
        eps = log_map(p, curve_from(np.array([0, 1, 0, -1.0]), grid, w), GeometryKind.SHAPE)
        with pytest.raises(AntipodalTransport):
            parallel_transport(eps.pole_evals, -eps.pole_evals, eps, GeometryKind.SHAPE)


def _rotation_case(seed, n, k, kind, weight_kind):
    """A packed sample with a pole representative p, a tangent h at p and per-curve unit rotations u."""
    rng = np.random.default_rng(seed)
    ks = [k] * n if weight_kind == "full" else rng.integers(5, k + 1, n)
    curves = []
    for i, ki in enumerate(ks):
        grid = irregular_grid(rng, int(ki))
        w = random_spd(rng, ki) if weight_kind == "full" else trapezoid_weights(grid)
        curves.append(curve_from(smooth_curve(rng, grid), grid, w, f"c{i}"))
    ps = PackedSample.of(curves)
    p = ps.pole_rep(np.concatenate([smooth_curve(rng, c.grid) for c in curves]), kind)
    h = tangent_part(ps, rng.normal(size=p.size) + 1j * rng.normal(size=p.size), p, kind)
    # per-curve norms inside the chart: below pi / 2 for shapes, 0.3 ||p|| for forms
    target = rng.uniform(0.05, 1.0, n) * (np.pi / 2 if kind is GeometryKind.SHAPE else 0.3 * ps.norm(p))
    h = h * (target / ps.norm(h))[ps.seg]
    u = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))[ps.seg]
    return curves, ps, p, h, u


_ROTATION_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 12),
    k=st.integers(5, 15),
    kind=st.sampled_from(KINDS),
    weight_kind=st.sampled_from(["diagonal", "full"]),
)


class TestRotationEquivariance:
    """The packed kernel commutes with a per-curve rotation u_i of its inputs."""

    @staticmethod
    def _close(ps, a, b, tol=1e-10):
        assert np.all(ps.norm(a - b) <= tol * np.maximum(1.0, ps.norm(b)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_ROTATION_CASES)
    def test_exp(self, seed, n, k, kind, weight_kind):
        _, ps, p, h, u = _rotation_case(seed, n, k, kind, weight_kind)
        self._close(ps, ps.exp(u * p, u * h, kind), u * ps.exp(p, h, kind))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_ROTATION_CASES)
    def test_log(self, seed, n, k, kind, weight_kind):
        _, ps, p, h, u = _rotation_case(seed, n, k, kind, weight_kind)
        eps_u, d_u = ps.log(u * p, kind, what=None)
        eps, d = ps.log(p, kind, what=None)
        self._close(ps, eps_u, u * eps)
        assert np.allclose(d_u, d, rtol=1e-10, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_ROTATION_CASES)
    def test_transport(self, seed, n, k, kind, weight_kind):
        _, ps, p, h, u = _rotation_case(seed, n, k, kind, weight_kind)
        dst = ps.exp(p, h, kind)  # aligned to p: <p, Exp_p(h)> is real and positive
        rng = np.random.default_rng(seed + 1)
        eps = tangent_part(ps, rng.normal(size=p.size) + 1j * rng.normal(size=p.size), p, kind)
        self._close(ps, ps.transport(u * p, u * dst, u * eps, kind), u * ps.transport(p, dst, eps, kind))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(**_ROTATION_CASES)
    def test_rescaling_changes_form_distance_only(self, seed, n, k, kind, weight_kind):
        # negative control: a form distance sees the scale of the curve, a shape distance does not
        curves, ps, p, h, u = _rotation_case(seed, n, k, kind, weight_kind)
        scaled = PackedSample.of([curve_from(1.7 * c.values, c.grid, c.weights, c.id) for c in curves])
        d = ps.log(p, kind, what=None)[1]
        d_scaled = scaled.log(p, kind, what=None)[1]
        if kind is GeometryKind.FORM:
            assert np.all(np.abs(d_scaled - d) > 1e-6 * d)
        else:
            assert np.allclose(d_scaled, d, rtol=1e-10, atol=1e-12)


class TestTake:
    """``PackedSample.take`` gathers curves, repeats allowed, as packing them again would, bit for bit."""

    @pytest.mark.parametrize("weight_kind", ["trapezoid", "spd", "shared"])
    def test_take_equals_packing_the_curves(self, weight_kind):
        from shapeboost.basis import SplineConfig, build_response_basis, sample_design

        rng = np.random.default_rng(4)
        basis = build_response_basis(SplineConfig(3, 7, cyclic=True), np.linspace(0, 1, 50))
        shared = random_spd(rng, 12)
        curves = []
        for i in range(7):
            grid = irregular_grid(rng, 12 if weight_kind != "trapezoid" else int(rng.integers(5, 20)))
            w = {"trapezoid": trapezoid_weights(grid), "spd": random_spd(rng, grid.size), "shared": shared}[weight_kind]
            curves.append(CurveSample(f"c{i}", grid, smooth_curve(rng, grid), w))
        packed = PackedSample.of(curves, sample_design(basis, curves))
        idx = np.array([3, 0, 5, 3, 6, 1, 0])
        picked = [curves[i] for i in idx]
        ref, sub = PackedSample.of(picked, sample_design(basis, picked)), packed.take(idx)
        assert sub.labels == ref.labels and sub.n == ref.n
        for name in ("offsets", "seg", "w", "W", "_ones_w", "_ones_ww", "values", "y_c", "y_norm", "_bins", "_pair_bins"):
            assert np.array_equal(getattr(sub, name), getattr(ref, name)), name
        assert np.array_equal(sub.band.dense(), ref.band.dense())
        assert (sub.W is not None and sub.W.strides[0] == 0) == (weight_kind == "shared")  # one matrix, not n copies
        coef = rng.normal(size=(idx.size, basis.dim)) + 1j * rng.normal(size=(idx.size, basis.dim))
        v = sub.field(coef)
        assert np.array_equal(v, ref.field(coef))
        assert np.array_equal(sub.project(v), ref.project(v))
        assert np.array_equal(sub.norm(v), ref.norm(v))
        assert np.array_equal(sub.design_grams(), ref.design_grams())
        assert np.array_equal(packed.rows(idx), np.concatenate([np.arange(*packed.offsets[i : i + 2]) for i in idx]))


    def test_shared_weight_rows_of_every_subset(self):
        # one weight matrix for every curve, held once: W0 x_i is one product per curve, and any gathered
        # subset, a lone curve included, gets the whole sample's rows bit for bit, up to the sizes of the
        # stacked training curves of a cross-validation
        rng = np.random.default_rng(7)
        for k, n in ((5, 36), (12, 36), (28, 36), (12, 1500)):
            W0 = random_spd(rng, k) + 0.01 * rng.normal(size=(k, k))  # not symmetric: W0, not its transpose
            packed = PackedSample([W0] * n, [f"c{i}" for i in range(n)])
            assert packed.W0 is not None and packed.W.strides[0] == 0
            x = rng.normal(size=n * k) + 1j * rng.normal(size=n * k)
            whole = packed.weigh(x)
            per_curve = np.concatenate([W0 @ xi for xi in x.reshape(n, k)])
            np.testing.assert_allclose(whole, per_curve, rtol=1e-13, atol=1e-13 * np.abs(per_curve).max())
            sizes = [1, 1, 2, 3, n - 1, n, *rng.integers(1, 2 * n, 40 if n < 100 else 6)]
            for size in sizes:
                idx = rng.choice(n, size=size, replace=size > n)
                sub = packed.take(idx)
                assert sub.W0 is packed.W0 and sub.W.strides[0] == 0
                rows = packed.rows(idx)
                assert np.array_equal(sub.weigh(x[rows]), whole[rows]), (k, size)


class TestBandRowSums:
    """``PackedSample.field`` adds its band's columns in numpy's order: ``.sum(axis=1)`` bit for bit."""

    # 1: the identity band of coefficient mode; d + 1: a degree-d B-spline band (cubic: 4)
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 64, 65])
    def test_bits_of_numpy_sum(self, width):
        from shapeboost.geometry import _band_row_sums

        rng = np.random.default_rng(width)
        for _ in range(20):
            prod = (rng.normal(size=(300, width)) + 1j * rng.normal(size=(300, width))) \
                * 10.0 ** rng.integers(-8, 8, size=(300, width))
            prod[rng.random((300, width)) < 0.3] = 0.0
            prod[rng.random((300, width)) < 0.3] *= -0.0  # signed zeros, and rows of only -0.0
            prod[:20] = -0.0
            got, ref = _band_row_sums(prod), prod.sum(axis=1)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_field_of_a_cubic_band(self, rng):
        from shapeboost.basis import SplineConfig, build_response_basis, sample_design

        basis = build_response_basis(SplineConfig(3, 9, cyclic=True), np.linspace(0, 1, 50))
        curves = []
        for i in range(6):
            grid = irregular_grid(rng, int(rng.integers(5, 30)))
            curves.append(CurveSample(f"c{i}", grid, smooth_curve(rng, grid), trapezoid_weights(grid)))
        packed = PackedSample.of(curves, sample_design(basis, curves))
        assert packed.band.vals.shape[1] == 4
        coef = rng.normal(size=(6, basis.dim)) + 1j * rng.normal(size=(6, basis.dim))
        ref = (packed.band.vals * coef.reshape(-1)[packed._bins]).sum(axis=1)
        assert np.array_equal(packed.field(coef), ref)


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

    @pytest.mark.parametrize("radius", [1e-10, 1e-15, 1e-150])
    def test_small_curves_accepted(self, radius):
        # the all-equal test is relative to the curve's own largest |value|: forms are scale-invariant
        grid = np.linspace(0, 1, 10)
        curve = CurveSample("tiny", grid, radius * np.exp(2j * np.pi * grid), trapezoid_weights(grid))
        assert np.array_equal(curve.values, radius * np.exp(2j * np.pi * grid))

    @pytest.mark.parametrize("scale", [1.0, 1e-15, 1e15, 0.0])
    def test_equal_values_rejected_at_any_scale(self, scale):
        grid = np.linspace(0, 1, 10)
        with pytest.raises(GeometryError, match=r"^curve 'eq': values are all equal \(degenerate\)$"):
            CurveSample("eq", grid, np.full(10, scale * (2 - 1j)), trapezoid_weights(grid))

    @pytest.mark.parametrize("weight_kind", ["trapezoid", "uniform", "full"])
    @pytest.mark.parametrize("k", [5, 10])
    @pytest.mark.parametrize("value", [1e200, 9e201 + 6e201j, 1e-200])
    def test_constant_curves_all_equal_at_extreme_scales(self, value, k, weight_kind):
        # the centred values are divided by the largest |value| before squaring, so the rounding
        # residue of a constant curve at 1e200 is judged flat, not an overflow of its squared norm
        grid = np.linspace(0, 1, k)
        weights = {
            "trapezoid": trapezoid_weights(grid), "uniform": uniform_weights(k),
            "full": random_spd(np.random.default_rng(k), k),
        }[weight_kind]
        with pytest.raises(GeometryError, match=r"^curve 'c': values are all equal \(degenerate\)$"):
            CurveSample("c", grid, np.full(k, value + 0j), weights)

    def test_landmark_mapping(self, tmp_path):
        # landmark files map index j = 1..k to the grid (j - 1) / (k - 1)
        from shapeboost.io import read_curves

        vals = np.array([0, 1j, 2.0, 3j])
        path = tmp_path / "lm.csv"
        path.write_text("curve_id,index,re,im\n" + "".join(f"lm,{j},{v.real},{v.imag}\n" for j, v in enumerate(vals, 1)))
        (c,), landmark = read_curves(path, "uniform")
        assert landmark and c.id == "lm"
        assert np.allclose(c.grid, [0, 1 / 3, 2 / 3, 1.0])
        assert np.allclose(c.weights, 0.25)
        assert np.array_equal(c.values, vals)
