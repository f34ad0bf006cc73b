"""Response spline bases, tangent-space constraint transforms, and penalties.

The tangent space at a pole is parameterized through a real function basis
b_0^(1..m0) applied to both the real and the imaginary coordinate.  A real
2*m0 x m transform with orthonormal columns maps unconstrained coefficients
into the tangent space: its columns span the null space of the stacked
(real, imaginary) constraint matrix built from the normal directions of the
quotient geometry.  Closed curves use cyclic B-splines, so periodicity is
structural and never enters the constraint matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CurveSample, DesignBand, GeometryError, GeometryKind, PackedSample, center, empirical_norm

__all__ = [
    "SplineConfig",
    "BSplineBasis",
    "PoleCoef",
    "TangentTransform",
    "PenaltyBlock",
    "build_response_basis",
    "curve_design",
    "sample_design",
    "constraint_matrix",
    "packed_constraint_matrix",
    "normal_projections",
    "constraint_mean",
    "nullspace",
    "nullspace_transform",
    "center_pole",
]

RANK_TOL = 1e-10


@dataclass(frozen=True)
class SplineConfig:
    """B-spline basis configuration.

    ``n_knots`` counts interior knots; the basis dimension is
    n_knots + degree + 1 for open bases and n_knots + 1 for cyclic ones.
    """

    degree: int = 3
    n_knots: int = 10
    cyclic: bool = False
    knot_rule: str = "equidistant"  # "equidistant" | "quantile"

    def __post_init__(self):
        if self.degree < 1:
            raise GeometryError("spline degree must be >= 1")
        if self.n_knots < 0:
            raise GeometryError("n_knots must be nonnegative")
        if self.knot_rule not in ("equidistant", "quantile"):
            raise GeometryError(f"unknown knot rule {self.knot_rule!r}")
        if self.cyclic and self.n_knots + 1 < self.degree + 1:
            raise GeometryError("cyclic basis needs n_knots + 1 >= degree + 1")

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "n_knots": self.n_knots,
            "cyclic": self.cyclic,
            "knot_rule": self.knot_rule,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SplineConfig":
        return cls(
            degree=int(d["degree"]),
            n_knots=int(d["n_knots"]),
            cyclic=bool(d["cyclic"]),
            knot_rule=str(d.get("knot_rule", "equidistant")),
        )


def _de_boor(knots: np.ndarray, degree: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero B-spline values at points t in [0, 1].

    ``knots`` is the full knot vector: degree + 1 knots up to 0, the interior
    knots, then degree + 1 knots from 1.  Returns ``(values, last)``: values
    has shape (degree + 1, len(t)), and values[r, i] is basis function
    last[i] - degree + r at t[i].  This is de Boor's recursion (C. de Boor,
    J. Approx. Theory 6, 1972) with the arithmetic of scipy's ``_deBoor_D``:
    each value is the same quotient and products, and the two products of a
    value are added once (addition commutes, and t - a is -(a - t) exactly),
    so the values equal ``BSpline.design_matrix`` bit for bit.  One recursion
    level is one vector step over all points and terms.  The interval
    knots[last] <= t < knots[last + 1] (closed at 1) lies between distinct
    breakpoints, so no denominator is zero.
    """
    d = degree
    # d plus the number of interior knots <= t: the interval, clipped to a nonempty one at both ends
    last = np.searchsorted(knots[d + 1 : knots.size - d - 1], t, "right") + d
    near = knots[np.arange(1 - d, d + 1)[:, None] + last]  # knots[last-d+1 .. last+d]
    ahead = near - t
    behind = t - near
    h = np.zeros((d + 1, t.size))
    h[0] = 1.0
    for j in range(1, d + 1):
        w = h[:j] / (near[d : d + j] - near[d - j : d])
        np.multiply(w, ahead[d : d + j], out=h[:j])
        h[1 : j + 1] += w * behind[d - j : d]
    return h, last


class BSplineBasis:
    """Evaluable B-spline basis on [0, 1], optionally periodic.

    Periodic bases are built on periodically extended knots with wrapped
    coefficients, so partition of unity and periodicity hold by construction.
    """

    def __init__(self, cfg: SplineConfig, interior_knots: np.ndarray):
        interior = np.asarray(interior_knots, dtype=float)
        if interior.size != cfg.n_knots:
            raise GeometryError("interior knot count does not match configuration")
        if interior.size and (interior.min() <= 0.0 or interior.max() >= 1.0):
            raise GeometryError("interior knots must lie strictly inside (0, 1)")
        if np.any(np.diff(interior) <= 0):
            raise GeometryError("interior knots must be strictly increasing")
        self.cfg = cfg
        self.interior_knots = interior
        d = cfg.degree
        breaks = np.concatenate(([0.0], interior, [1.0]))
        self.breakpoints = breaks
        if cfg.cyclic:
            left = breaks[-(d + 1) : -1] - 1.0
            right = breaks[1 : d + 1] + 1.0
            self.knots = np.concatenate([left, breaks, right])
            self.dim = breaks.size - 1
        else:
            self.knots = np.concatenate([np.zeros(d + 1), interior, np.ones(d + 1)])
            self.dim = self.knots.size - d - 1

    def band(self, t: np.ndarray) -> DesignBand:
        """Band of the design matrix at points t: d + 1 columns and values per point.

        Cyclic bases evaluate t modulo 1, so rows at t and t + 1 coincide.
        Each row holds the d + 1 values of ``_de_boor`` at consecutive columns,
        wrapped modulo dim on cyclic bases; d + 1 <= dim makes the wrapped
        columns distinct.  A point on a knot keeps the slot of the basis
        function that vanishes there, with value 0.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        d = self.cfg.degree
        if t.size == 0:
            return DesignBand(np.zeros((0, d + 1), dtype=int), np.zeros((0, d + 1)), self.dim)
        lo, hi = t.min(), t.max()  # NaN and +-inf show in these
        if not (np.isfinite(lo) and np.isfinite(hi)):
            bad = np.flatnonzero(~np.isfinite(t))[0]
            raise GeometryError(f"non-finite evaluation point {float(t[bad])!r} at index {bad}")
        if self.cfg.cyclic:
            t = t - np.floor(t)
        elif lo < -1e-12 or hi > 1.0 + 1e-12:
            raise GeometryError("evaluation points outside [0, 1]")
        elif lo < 0.0 or hi > 1.0:
            t = np.clip(t, 0.0, 1.0)
        values, last = _de_boor(self.knots, d, t)
        cols = last[:, None] + np.arange(-d, 1)
        if self.cfg.cyclic:
            cols %= self.dim
        return DesignBand(cols, np.ascontiguousarray(values.T), self.dim)

    def design(self, t: np.ndarray) -> np.ndarray:
        """Design matrix of basis evaluations, shape (len(t), dim): the dense ``band``."""
        return self.band(t).dense()

    @cached_property
    def gram(self) -> np.ndarray:
        """Exact L2([0,1]) Gram matrix via per-interval Gauss-Legendre quadrature."""
        d = self.cfg.degree
        nodes, wts = np.polynomial.legendre.leggauss(d + 1)
        G = np.zeros((self.dim, self.dim))
        for a, b in zip(self.breakpoints[:-1], self.breakpoints[1:]):
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            B = self.design(x)
            G += 0.5 * (b - a) * (B.T * wts) @ B
        return G

    def penalty(self, kind: str = "second_diff") -> np.ndarray:
        """Coefficient penalty matrix: ridge, second-order difference, or zero.

        Cyclic bases use circular differences, so constants stay unpenalized.
        """
        m = self.dim
        if kind == "ridge":
            return np.eye(m)
        if kind == "none":
            return np.zeros((m, m))
        if kind != "second_diff":
            raise GeometryError(f"unknown penalty kind {kind!r}")
        if self.cfg.cyclic:
            D = np.zeros((m, m))
            for i in range(m):
                D[i, i] = 1.0
                D[i, (i + 1) % m] = -2.0
                D[i, (i + 2) % m] = 1.0
        else:
            if m < 3:
                return np.eye(m)
            D = np.zeros((m - 2, m))
            for i in range(m - 2):
                D[i, i : i + 3] = (1.0, -2.0, 1.0)
        return D.T @ D

    def to_dict(self) -> dict:
        return {"config": self.cfg.to_dict(), "interior_knots": self.interior_knots.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "BSplineBasis":
        return cls(SplineConfig.from_dict(d["config"]), np.asarray(d["interior_knots"], dtype=float))


def build_response_basis(cfg: SplineConfig, all_observed_t: np.ndarray) -> BSplineBasis:
    """Construct the response basis, placing interior knots by the configured rule.

    The quantile rule puts knots at j/(n_knots+1) quantiles of the pooled
    observed evaluation points; it requires enough distinct values to keep the
    knots strictly increasing.
    """
    t = np.asarray(all_observed_t, dtype=float).ravel()
    K = cfg.n_knots
    if K == 0:
        return BSplineBasis(cfg, np.empty(0))
    if cfg.knot_rule == "equidistant":
        interior = np.arange(1, K + 1) / (K + 1)
    else:
        if t.size == 0:
            raise GeometryError("quantile knot rule needs observed evaluation points")
        probs = np.arange(1, K + 1) / (K + 1)
        interior = np.quantile(t, probs)
        interior = np.clip(interior, 1e-9, 1 - 1e-9)
        if np.any(np.diff(interior) <= 0):
            raise GeometryError("too few distinct observations for quantile knots")
    return BSplineBasis(cfg, interior)


def curve_design(basis: BSplineBasis, curve: CurveSample, coef_mode: bool = False) -> np.ndarray:
    """Response design matrix for one curve: the dense ``sample_design`` of a one-curve sample."""
    return sample_design(basis, [curve], coef_mode).dense()


def sample_design(basis: BSplineBasis, curves: list[CurveSample], coef_mode: bool = False) -> DesignBand:
    """Band of the stacked response design of a whole sample, curve after curve.

    Coefficient-level curves already live in the basis: each curve's design is the identity.
    """
    if coef_mode:
        bad = next((c for c in curves if c.k != basis.dim), None)
        if bad is not None:
            raise GeometryError(f"curve {bad.id!r}: coefficient mode needs k == basis dim ({basis.dim}), got {bad.k}")
        return DesignBand.identity(basis.dim, len(curves))
    return basis.band(np.concatenate([c.grid for c in curves]))


@dataclass(frozen=True)
class PoleCoef:
    """Pole as complex coefficients in the response basis, evaluable anywhere."""

    coef: np.ndarray  # (m0,) complex
    basis: BSplineBasis

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=complex)
        if coef.shape != (self.basis.dim,):
            raise GeometryError("pole coefficient length does not match basis dimension")
        object.__setattr__(self, "coef", coef)


def center_pole(pole: PoleCoef, packed: PackedSample) -> PoleCoef:
    """Recenter pole coefficients so <1, p> = 0 under the product-space inner product.

    Uses partition of unity: subtracting a multiple of the all-ones coefficient
    vector shifts every evaluation by that constant.  ``packed`` carries the
    band of the sample's stacked design.
    """
    ones = packed.band @ np.ones(pole.basis.dim)
    num = np.sum(packed.inner(ones, packed.band @ pole.coef))
    den = np.sum(packed.inner(ones, ones).real)
    return PoleCoef(coef=pole.coef - (num / den) * np.ones(pole.basis.dim), basis=pole.basis)


@dataclass(frozen=True)
class TangentTransform:
    """Orthonormal null-space transform Z mapping R^m into tangent coefficients.

    Z has shape (2*m0, m); the first m0 rows address the real part of the
    response coefficients, the remaining rows the imaginary part.
    """

    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] % 2 != 0:
            raise GeometryError("transform must be a (2*m0, m) matrix")
        object.__setattr__(self, "Z", Z)

    @property
    def m(self) -> int:
        return self.Z.shape[1]

    @property
    def m0(self) -> int:
        return self.Z.shape[0] // 2

    @cached_property
    def complex_columns(self) -> np.ndarray:
        """(m0, m) complex matrix whose columns are the tangent directions' coefficients."""
        m0 = self.m0
        return self.Z[:m0] + 1j * self.Z[m0:]

    def field_coef(self, coefs: np.ndarray) -> np.ndarray:
        """Map tangent coefficients (m,) or (m, ...) to complex basis coefficients."""
        return self.complex_columns @ coefs

    def curve_coefs(self, coefs: np.ndarray) -> np.ndarray:
        """Complex basis coefficients Z_c c_i (n, m0) of per-curve tangent coefficients c (n, m)."""
        return coefs @ self.complex_columns.T

    def coords(self, proj: np.ndarray) -> np.ndarray:
        """Tangent coordinates Re(Z_c^H x_i) (n, m) of per-curve basis projections x (n, m0)."""
        return (proj @ np.conj(self.complex_columns)).real

    def gram(self, K: np.ndarray) -> np.ndarray:
        """Tangent Gram Re(Z_c^H K Z_c) of real basis Gram(s) K, shape (m0, m0) or (n, m0, m0)."""
        Zr, Zi = self.Z[: self.m0], self.Z[self.m0 :]
        G = Zr.T @ K @ Zr + Zi.T @ K @ Zi
        return 0.5 * (G + np.swapaxes(G, -1, -2))


def constraint_matrix(
    sample: list[CurveSample],
    pole: PoleCoef,
    kind: GeometryKind,
    designs: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Real constraint matrix (Re C, Im C) of the tangent space at the pole.

    C has one row per normal direction (1, i*1, i*p and, for shapes, p) and
    one column per basis function; entries are inner products averaged over
    the per-curve empirical inner products.  A coefficient vector
    (a, b) in R^{2*m0} representing sum_l (a_l + i b_l) b_0^(l) is tangent iff
    it lies in the null space of the returned matrix.
    """
    kind = GeometryKind.parse(kind)
    if not sample:
        raise GeometryError("constraint matrix needs a nonempty sample")
    m0 = pole.basis.dim
    n_rows = 4 if kind is GeometryKind.SHAPE else 3
    C = np.zeros((n_rows, m0), dtype=complex)
    for idx, curve in enumerate(sample):
        B = designs[idx] if designs is not None else curve_design(pole.basis, curve)
        w = curve.weights
        p_evals = B @ pole.coef
        p_c = center(p_evals, w)
        pn = empirical_norm(p_c, w)
        if pn <= 0:
            raise GeometryError(f"curve {curve.id!r}: pole is degenerate on this grid")
        p_hat = p_c / pn
        ones = np.ones(curve.k)
        one_n = empirical_norm(ones, w)
        zetas = [ones / one_n, 1j * ones / one_n, 1j * p_hat]
        if kind is GeometryKind.SHAPE:
            zetas.append(p_hat)
        if w.ndim == 2:
            WB = w @ B
        else:
            WB = w[:, None] * B
        for r, zeta in enumerate(zetas):
            # <b_l, zeta> = b_l^T W zeta: real basis, no conjugation needed
            C[r] += WB.T @ zeta
    C /= len(sample)
    return np.hstack([C.real, C.imag])


def normal_projections(packed: PackedSample, pole: PoleCoef, kind: GeometryKind) -> list[np.ndarray]:
    """Per-curve projections ``packed.project(zeta)``, (n, m0) each, of the normal directions at the pole:
    zeta = 1/||1||, i/||1||, i p̂ and, for shapes, p̂."""
    p_c = packed.center(packed.band @ pole.coef)
    pn = packed.norm(p_c)
    packed.check(pn <= 0, GeometryError, "pole is degenerate on this grid")
    p_hat = p_c / pn[packed.seg]
    ones = np.ones(packed.offsets[-1])
    one = ones / packed.norm(ones)[packed.seg]
    zetas = [one, 1j * one, 1j * p_hat] + ([p_hat] if GeometryKind.parse(kind) is GeometryKind.SHAPE else [])
    return [packed.project(zeta) for zeta in zetas]


def constraint_mean(normals: list[np.ndarray]) -> np.ndarray:
    """Real constraint matrix (Re C, Im C) of the curves whose ``normal_projections`` are given: their mean."""
    C = np.array([p.sum(axis=0) for p in normals]) / normals[0].shape[0]
    return np.hstack([C.real, C.imag])


def packed_constraint_matrix(packed: PackedSample, pole: PoleCoef, kind: GeometryKind) -> np.ndarray:
    """``constraint_matrix`` in packed passes: row r is the mean over curves of the r-th normal projection."""
    return constraint_mean(normal_projections(packed, pole, kind))


def nullspace(C: np.ndarray, abs_tol: float = 0.0) -> tuple[np.ndarray, int]:
    """Orthonormal null-space basis (columns) of C by SVD, and the rank of C.

    Singular values at or below max(RANK_TOL * largest, ``abs_tol``) count as zero.
    """
    if not np.any(C):
        return np.eye(C.shape[1]), 0
    _, s, Vh = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > max(RANK_TOL * s[0], abs_tol)))
    return Vh[rank:].T.copy(), rank


def nullspace_transform(C_real: np.ndarray) -> TangentTransform:
    """Tangent transform onto the null space of the constraint matrix (``nullspace``).

    A rank deficiency warns, because it reduces the number of constraints
    actually imposed.
    """
    C_real = np.asarray(C_real, dtype=float)
    Z, rank = nullspace(C_real)
    if 0 < rank < min(C_real.shape):
        message = f"constraint matrix is rank deficient ({rank} < {min(C_real.shape)})"
        warnings.warn(message + "; reducing the number of imposed constraints", stacklevel=2)
    return TangentTransform(Z)


@dataclass(frozen=True)
class PenaltyBlock:
    """Penalty P0 on the untransformed basis and its tangent-space version Z^T (I_2 (x) P0) Z."""

    P0: np.ndarray
    P_perp: np.ndarray

    @classmethod
    def build(cls, basis: BSplineBasis, transform: TangentTransform, kind: str = "second_diff") -> "PenaltyBlock":
        P0 = basis.penalty(kind)
        return cls(P0=P0, P_perp=transform.gram(P0))
