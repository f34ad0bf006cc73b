"""Quotient geometry of planar curves modulo translation, rotation and scale.

Planar curves and landmark configurations are identified with complex-valued
evaluation vectors.  A *form* is the equivalence class of a curve under
translation and rotation, a *shape* additionally quotients out scale.  All
operations work on irregular per-curve grids through empirical inner products

    <a, b>_W = conj(a)^T W b

with a positive weight vector (diagonal W) or a full symmetric
positive-definite weight matrix W.  The inner product is conjugate-linear in
the first argument.

Representatives are centered with respect to the unit-norm constant vector,
rotation aligned to a pole representative, and (for shapes) normalized to the
unit sphere, where the usual spherical exponential/logarithm maps and parallel
transport apply.  Form geometry is flat in the aligned chart except for the
rotation correction of the parallel transport.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GeometryKind",
    "CurveSample",
    "PackedSample",
    "TangentEvals",
    "AlignedRep",
    "GeometryError",
    "DegenerateAlignment",
    "AntipodalTransport",
    "TangentError",
    "trapezoid_weights",
    "uniform_weights",
    "WEIGHT_RULES",
    "rule_weights",
    "empirical_inner",
    "empirical_norm",
    "center",
    "tangent_project",
    "representative",
    "geodesic_dist",
    "exp_map",
    "log_map",
    "parallel_transport",
]

TANGENT_TOL = 1e-8
ALIGN_TOL = 1e-12
CUT_LOCUS_TOL = 1e-6


class GeometryError(ValueError):
    """Invalid geometric input (degenerate curve, bad weights, ...)."""


class DegenerateAlignment(GeometryError):
    """Rotation alignment is undefined: the aligned inner product vanishes."""


class AntipodalTransport(GeometryError):
    """Parallel transport undefined between (nearly) antipodal representatives."""


class TangentError(GeometryError):
    """A vector violates the tangent-space constraints beyond tolerance."""


class GeometryKind(enum.Enum):
    """Which group is quotiented out of the curve space."""

    FORM = "form"  # translation x rotation
    SHAPE = "shape"  # translation x rotation x scale

    @classmethod
    def parse(cls, value: "GeometryKind | str") -> "GeometryKind":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise GeometryError(f"unknown geometry kind {value!r}") from None


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoidal-rule quadrature weights for a strictly increasing grid in [0,1]."""
    t = np.asarray(grid, dtype=float)
    if t.size < 2:
        raise GeometryError("trapezoid weights need at least two grid points")
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2.0
    w[-1] = (t[-1] - t[-2]) / 2.0
    if t.size > 2:
        w[1:-1] = (t[2:] - t[:-2]) / 2.0
    return w


def uniform_weights(k: int) -> np.ndarray:
    """Equal weights 1/k, the canonical landmark choice."""
    if k < 1:
        raise GeometryError("need at least one grid point")
    return np.full(k, 1.0 / k)


WEIGHT_RULES = ("trapezoid", "uniform", "column", "gram")


def rule_weights(rule: str, grid: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
    """Weights of one curve under a weight rule: the one map from rule to weights.

    ``trapezoid`` and ``uniform`` are quadrature rules on the grid; ``gram``
    is the response-basis Gram matrix (coefficient-level data).  ``column``
    weights are read per point from a curve file and have no rule here.
    """
    if rule == "trapezoid":
        return trapezoid_weights(grid)
    if rule == "uniform":
        return uniform_weights(np.size(grid))
    if rule == "gram":
        if gram is None:
            raise GeometryError("gram weights need the response basis")
        return gram
    raise GeometryError(f"weight rule {rule!r} has no weights of its own; one of trapezoid, uniform, gram")


def _is_full(weights: np.ndarray) -> bool:
    return weights.ndim == 2


def empirical_inner(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> complex:
    """Empirical inner product conj(a)^T W b; Hermitian, conjugate-linear in ``a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    w = np.asarray(weights)
    if a.shape != b.shape:
        raise GeometryError(f"length mismatch: {a.shape} vs {b.shape}")
    if _is_full(w):
        if w.shape != (a.size, a.size):
            raise GeometryError("weight matrix does not match value length")
        return complex(np.conj(a) @ w @ b)
    if w.shape != a.shape:
        raise GeometryError("weight vector does not match value length")
    return complex(np.sum(np.conj(a) * w * b))


def empirical_norm(a: np.ndarray, weights: np.ndarray) -> float:
    """Norm induced by the real part of the empirical inner product."""
    return float(np.sqrt(max(empirical_inner(a, a, weights).real, 0.0)))


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> complex:
    w = np.asarray(weights)
    if _is_full(w):
        ones = np.ones(values.size)
        return complex((ones @ w @ values) / (ones @ w @ ones))
    return complex(np.sum(w * values) / np.sum(w))


def center(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Centered representative: subtract the weighted centroid."""
    values = np.asarray(values, dtype=complex)
    return values - _weighted_mean(values, weights)


def _validate_weights(weights: np.ndarray, k: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise GeometryError("weights must be finite")
    if w.ndim == 1:
        if w.shape != (k,):
            raise GeometryError("weight vector length does not match grid")
        if not np.all(w > 0):
            raise GeometryError("diagonal weights must be strictly positive")
    elif w.ndim == 2:
        if w.shape != (k, k):
            raise GeometryError("weight matrix shape does not match grid")
        if not np.allclose(w, w.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(w).max()))):
            raise GeometryError("weight matrix must be symmetric")
        try:
            np.linalg.cholesky(w)
        except np.linalg.LinAlgError:
            raise GeometryError("weight matrix is not positive definite") from None
    else:
        raise GeometryError("weights must be a vector or a square matrix")
    return w


@dataclass(frozen=True)
class CurveSample:
    """One observed planar curve or landmark configuration.

    Attributes
    ----------
    id : str
        Identifier used in error messages and file formats.
    grid : ndarray, shape (k,)
        Strictly increasing evaluation points in [0, 1].  Landmark
        configurations map index j to (j-1)/(k-1).
    values : ndarray of complex, shape (k,)
        Curve evaluations, x + i y.
    weights : ndarray, shape (k,) or (k, k)
        Positive quadrature weights or a full SPD weight matrix.
    """

    id: str
    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise GeometryError(f"curve {self.id!r}: grid and values must be equal-length vectors")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise GeometryError(f"curve {self.id!r}: grid and values must be finite")
        k = grid.size
        if k < 3:
            raise GeometryError(f"curve {self.id!r}: need at least 3 evaluation points, got {k}")
        if not np.all(np.diff(grid) > 0):
            raise GeometryError(f"curve {self.id!r}: grid must be strictly increasing")
        if grid[0] < -1e-12 or grid[-1] > 1 + 1e-12:
            raise GeometryError(f"curve {self.id!r}: grid must lie in [0, 1]")
        try:
            weights = _validate_weights(self.weights, k)
        except GeometryError as exc:
            raise GeometryError(f"curve {self.id!r}: {exc}") from None
        centered = values - _weighted_mean(values, weights)
        scale = max(1.0, float(np.abs(values).max()))
        if empirical_norm(centered, weights) <= 1e-14 * scale:
            raise GeometryError(f"curve {self.id!r}: values are all equal (degenerate)")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def k(self) -> int:
        return self.grid.size

    @classmethod
    def from_landmarks(cls, id: str, values: np.ndarray, weights: np.ndarray | None = None) -> "CurveSample":
        """Build a sample from a landmark configuration, mapping index j to (j-1)/(k-1)."""
        values = np.asarray(values, dtype=complex)
        k = values.size
        grid = np.arange(k, dtype=float) / (k - 1)
        if weights is None:
            weights = uniform_weights(k)
        return cls(id=id, grid=grid, values=values, weights=weights)


@dataclass(frozen=True)
class TangentEvals:
    """A tangent vector at a pole, given by evaluations on one curve's grid.

    ``pole_evals`` holds the pole representative on the same grid (centered,
    and unit-norm for shapes); ``values`` satisfies the tangent constraints
    <1, v> = 0 and Im<v, p> = 0 (plus Re<v, p> = 0 for shapes) up to
    ``TANGENT_TOL`` relative to its norm.
    """

    grid: np.ndarray
    values: np.ndarray
    pole_evals: np.ndarray
    kind: GeometryKind
    weights: np.ndarray

    def norm(self) -> float:
        return empirical_norm(self.values, self.weights)

    def constraint_residuals(self) -> np.ndarray:
        """Absolute tangent-constraint residuals [Re<1,v>, Im<1,v>, Im<p̂,v>(, Re<p̂,v>)]."""
        w = self.weights
        ones = np.ones(self.values.size)
        c1 = empirical_inner(ones, self.values, w) / empirical_norm(ones, w)
        p = self.pole_evals
        pn = empirical_norm(p, w)
        cp = empirical_inner(p, self.values, w) / pn if pn > 0 else 0.0
        res = [abs(c1.real), abs(c1.imag), abs(cp.imag)]
        if self.kind is GeometryKind.SHAPE:
            res.append(abs(cp.real))
        return np.array(res)

    def validate(self, tol: float = TANGENT_TOL) -> None:
        scale = max(self.norm(), 1e-300)
        res = self.constraint_residuals()
        if np.any(res > tol * max(1.0, scale)):
            raise TangentError(
                f"tangent constraints violated: residuals {res} exceed {tol} * max(1, {scale:.3g})"
            )


class AlignedRep(NamedTuple):
    """Aligned representative with the rotation/scale applied to reach it."""

    values: np.ndarray
    rotation: complex
    scale: float


_ALIGN_FAILED = "rotation alignment undefined, |<y, p>| = {:.3e} below threshold"
_ANTIPODAL = "transport undefined: <y, p> = {:.6f} ~ -||y|| ||p||"


class PackedSample:
    """Curves of one sample packed into concatenated arrays.

    The rows of curve i are ``offsets[i]:offsets[i + 1]``; ``seg`` maps rows
    to curves.  Weights are a concatenated vector ``w`` or an ``(n, k, k)``
    stack ``W`` of SPD matrices (every curve then has the same k).  ``values``
    and ``y_c`` are the raw and centered observations, ``design`` the stacked
    response design, each when given.  Exp, Log, parallel transport and
    geodesic distance act on all curves at once; per-curve scalars come back
    as ``(n,)`` arrays.  A failed check raises for the first offending curve.
    """

    def __init__(
        self,
        weights: list[np.ndarray],
        labels: list[str],
        values: list[np.ndarray] | None = None,
        design: np.ndarray | None = None,
    ):
        if not weights:
            raise GeometryError("a packed sample needs at least one curve")
        sizes = np.array([np.shape(w)[0] for w in weights])
        self.n = sizes.size
        self.labels = list(labels)
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.seg = np.repeat(np.arange(self.n), sizes)
        full = [np.ndim(w) == 2 for w in weights]
        if all(full):
            if np.any(sizes != sizes[0]):
                raise GeometryError("full weight matrices of one sample must all have the same size")
            self.w = None
            self.W = np.stack(weights).astype(float)
            ones_w = self.W.sum(axis=1).reshape(-1)  # rows of 1^T W_i
        elif not any(full):
            self.w = np.concatenate(weights).astype(float)
            self.W = None
            ones_w = self.w
        else:
            raise GeometryError("a sample cannot mix diagonal and full weight matrices")
        self._ones_w = ones_w
        self._ones_ww = self.segsum(ones_w)
        self.design = design
        self.values = None if values is None else np.concatenate(values).astype(complex)
        self.y_c = None if values is None else self.center(self.values)

    @classmethod
    def of(cls, curves: list[CurveSample], design: np.ndarray | None = None) -> "PackedSample":
        """Pack a sample of curves, optionally with its stacked response design."""
        return cls([c.weights for c in curves], [f"curve {c.id!r}" for c in curves], [c.values for c in curves], design)

    # -- segment arithmetic ------------------------------------------------

    def segsum(self, x: np.ndarray) -> np.ndarray:
        """Per-curve sums of the rows of a packed array."""
        return np.add.reduceat(x, self.offsets[:-1], axis=0)

    def weigh(self, x: np.ndarray) -> np.ndarray:
        """W_i x_i for every curve; x has shape (N,) or (N, c)."""
        if self.W is None:
            return (self.w if x.ndim == 1 else self.w[:, None]) * x
        n, k = self.W.shape[:2]
        return (self.W @ x.reshape(n, k, -1)).reshape(x.shape)

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """R_i x_i for every curve with R_i^T R_i = W_i: sqrt(w), or L^T for W = L L^T."""
        if self.W is None:
            root = np.sqrt(self.w)
            return (root if x.ndim == 1 else root[:, None]) * x
        n, k = self.W.shape[:2]
        return (np.linalg.cholesky(self.W).transpose(0, 2, 1) @ x.reshape(n, k, -1)).reshape(x.shape)

    def inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-curve empirical inner products conj(a_i)^T W_i b_i, shape (n,)."""
        return self.segsum(np.conj(a) * self.weigh(b))

    def norm(self, a: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(a, a).real, 0.0))

    def center(self, v: np.ndarray) -> np.ndarray:
        """Subtract every curve's weighted centroid."""
        return v - (self.segsum(self._ones_w * v) / self._ones_ww)[self.seg]

    def check(self, bad: np.ndarray, error: type[Exception], what: str, *values: np.ndarray) -> None:
        """Raise ``error`` for the first flagged curve: its label, then ``what`` formatted with its ``values``."""
        if np.any(bad):
            i = int(np.argmax(bad))
            raise error(f"{self.labels[i]}: " + what.format(*(v[i] for v in values)))

    # -- basis-coefficient space -------------------------------------------

    def field(self, coef: np.ndarray) -> np.ndarray:
        """Evaluations B_i f_i of per-curve complex basis coefficients f (n, m0)."""
        return (self.design * coef[self.seg]).sum(axis=1)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Per-curve B_i^T W_i v_i, shape (n, m0)."""
        return self.segsum(self.design * self.weigh(v)[:, None])

    def design_grams(self) -> np.ndarray:
        """Per-curve B_i^T W_i B_i, shape (n, m0, m0), in one batched product.

        Diagonal weights zero-pad the whitened designs to the longest curve.
        """
        B = self.design
        if self.W is not None:
            Bs = B.reshape(self.n, self.W.shape[1], -1)
            return Bs.transpose(0, 2, 1) @ (self.W @ Bs)
        rows = np.arange(B.shape[0]) - self.offsets[self.seg]
        padded = np.zeros((self.n, int(np.diff(self.offsets).max()), B.shape[1]))
        padded[self.seg, rows] = self.whiten(B)
        return padded.transpose(0, 2, 1) @ padded

    # -- geometry ----------------------------------------------------------

    def pole_rep(self, p_evals: np.ndarray, kind: GeometryKind) -> np.ndarray:
        """Centered (and for shapes unit-norm) pole representative on every curve."""
        p = self.center(np.asarray(p_evals, dtype=complex))
        pn = self.norm(p)
        self.check(pn <= 0, DegenerateAlignment, "pole degenerate on this grid")
        return p / pn[self.seg] if kind is GeometryKind.SHAPE else p

    def align(self, a: np.ndarray, target: np.ndarray, what: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rotations u_i making <u_i a_i, target_i> real and positive.

        Returns u (n,) and the mask of curves where |<a, target>| is below
        ``ALIGN_TOL`` relative to the two norms; u = 1 where the inner
        product vanishes.  With ``what`` given, a flagged curve raises
        DegenerateAlignment with that message.
        """
        ip = self.inner(a, target)
        aip = np.abs(ip)
        bad = aip < ALIGN_TOL * self.norm(a) * self.norm(target)
        if what is not None:
            self.check(bad, DegenerateAlignment, what, aip)
        u = np.where(aip > 0, ip / np.where(aip > 0, aip, 1.0), 1.0)
        return u, bad

    def exp(
        self,
        p: np.ndarray,
        h: np.ndarray,
        kind: GeometryKind,
        error: type[Exception] = GeometryError,
    ) -> np.ndarray:
        """Centered representatives of Exp_[p](h), unit norm for shapes.

        Forms: p + h.  Shapes: cos(||h||) p + sin(||h||) h / ||h||; ``error``
        is raised where ||h|| >= pi - CUT_LOCUS_TOL, at and beyond the cut
        locus.  The result is re-centered per curve, because tangent
        constraints imposed on sample averages need not hold on each curve.
        """
        if kind is GeometryKind.FORM:
            mu = p + h
        else:
            nh = self.norm(h)
            self.check(nh >= np.pi - CUT_LOCUS_TOL, error, "predictor norm {:.4f} beyond the shape cut locus", nh)
            big = nh > 1e-12
            sinc = np.where(big, np.sin(nh) / np.where(big, nh, 1.0), 1.0)
            mu = np.cos(nh)[self.seg] * p + sinc[self.seg] * h
        mu = self.center(mu)
        if kind is GeometryKind.SHAPE:
            mn = self.norm(mu)
            self.check(mn <= 0, DegenerateAlignment, "degenerate mean candidate")
            mu = mu / mn[self.seg]
        return mu

    def log(self, base: np.ndarray, kind: GeometryKind, what: str | None = _ALIGN_FAILED) -> tuple[np.ndarray, ...]:
        """Log_[base]([y]) of the sample's observations, and the geodesic distances.

        ``base`` holds centered representatives, unit norm for shapes.  Forms:
        ũ ỹ - base.  Shapes: d (r - <base, r> base) / ||r - <base, r> base||
        with the normalized aligned curve r and the geodesic distance d; zero
        where [y] = [base].  ``what`` is the message for a degenerate
        alignment; None accepts it, as distances stay defined there.
        """
        u, _ = self.align(self.y_c, base, what)
        rep = u[self.seg] * self.y_c
        if kind is GeometryKind.FORM:
            eps = rep - base
            return eps, self.norm(eps)
        rep = rep / self.norm(self.y_c)[self.seg]
        c0 = self.inner(base, rep)
        resid = rep - c0[self.seg] * base
        rn = self.norm(resid)
        d = np.arctan2(np.minimum(rn, 1.0), np.minimum(np.abs(c0), 1.0))
        scale = np.where(rn > 0, d / np.where(rn > 0, rn, 1.0), 0.0)
        return resid * scale[self.seg], d

    def transport(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        eps: np.ndarray,
        kind: GeometryKind,
        what: str = _ANTIPODAL,
    ) -> np.ndarray:
        """Parallel transport of ``eps`` from T_[src] to T_[dst] along the geodesic.

        ``src`` and ``dst`` are mutually aligned centered representatives with
        normalizations ŝ, d̂.  Shapes: eps - <d̂, eps> (ŝ + d̂) / (1 + <ŝ, d̂>),
        the spherical transport with the complex inner product; forms only
        rotate the Im<d̂, eps> coordinate orthogonal to the real ŝ-d̂ plane.
        """
        ns, nd = self.norm(src), self.norm(dst)
        self.check((ns <= 0) | (nd <= 0), GeometryError, "transport endpoints are degenerate after centering")
        s_hat = src / ns[self.seg]
        d_hat = dst / nd[self.seg]
        a = self.inner(s_hat, d_hat).real
        denom = 1.0 + a
        self.check(denom < 1e-12, AntipodalTransport, what, a)
        c = self.inner(d_hat, eps)
        if kind is GeometryKind.FORM:
            c = 1j * c.imag
        return eps - (c / denom)[self.seg] * (s_hat + d_hat)


def representative(y: CurveSample, p_evals: np.ndarray, kind: GeometryKind) -> AlignedRep:
    """Centered, rotation-aligned (and for shapes normalized) representative of [y].

    Both the curve and the pole evaluations are centered first; the curve is
    rotated by u = <ỹ, p̃>/|<ỹ, p̃>| so that the aligned inner product is real
    and positive.  Returns the representative together with the rotation u and
    the scale factor applied (1 for forms).
    """
    kind = GeometryKind.parse(kind)
    ps = PackedSample.of([y])
    u, _ = ps.align(ps.y_c, ps.center(np.asarray(p_evals, dtype=complex)), _ALIGN_FAILED)
    aligned = u[0] * ps.y_c
    lam = 1.0
    if kind is GeometryKind.SHAPE:
        lam = 1.0 / float(ps.norm(aligned)[0])
        aligned = aligned * lam
    return AlignedRep(values=aligned, rotation=complex(u[0]), scale=lam)


def geodesic_dist(y: CurveSample, p_evals: np.ndarray, kind: GeometryKind) -> float:
    """Geodesic distance between [y] and [p].

    Forms: ||ỹ - p̃|| of the aligned centered representatives.  Shapes: the
    Procrustes distance, the angle between the normalized representatives.
    The distance only involves |<y, p>|, so it stays defined where the
    aligning rotation itself is degenerate.
    """
    kind = GeometryKind.parse(kind)
    ps = PackedSample.of([y])
    _, d = ps.log(ps.pole_rep(p_evals, kind), kind, what=None)
    return float(d[0])


def exp_map(
    p_evals: np.ndarray,
    beta: TangentEvals,
    kind: GeometryKind,
    check: bool = True,
) -> np.ndarray:
    """Riemannian exponential: representative of Exp_[p](beta) on beta's grid.

    Forms: p̃ + β.  Shapes: cos(||β||) p̃ + sin(||β||) β/||β||; values with
    ||β|| >= π - 1e-6 are rejected, the map is undefined at and beyond the
    cut locus.
    """
    kind = GeometryKind.parse(kind)
    ps = PackedSample([beta.weights], ["tangent vector"])
    p = ps.pole_rep(p_evals, kind)
    if check:
        beta.validate()
    return ps.exp(p, np.asarray(beta.values, dtype=complex), kind)


def log_map(p_evals: np.ndarray, y: CurveSample, kind: GeometryKind) -> TangentEvals:
    """Riemannian logarithm Log_[p]([y]) as tangent evaluations at the pole.

    Forms: ỹ - p̃.  Shapes: d * (ỹ - <p̃, ỹ> p̃) / ||ỹ - <p̃, ỹ> p̃|| with the
    geodesic distance d; returns the zero vector when [y] = [p].
    """
    kind = GeometryKind.parse(kind)
    ps = PackedSample.of([y])
    p = ps.pole_rep(p_evals, kind)
    vals, _ = ps.log(p, kind)
    return TangentEvals(grid=y.grid, values=vals, pole_evals=p, kind=kind, weights=y.weights)


def parallel_transport(
    from_evals: np.ndarray,
    to_evals: np.ndarray,
    eps: TangentEvals,
    kind: GeometryKind,
    check: bool = True,
) -> TangentEvals:
    """Parallel transport of ``eps`` from T_[y] to T_[p] along the geodesic.

    ``from_evals`` and ``to_evals`` are mutually aligned representatives,
    centered here; the formulas are those of ``PackedSample.transport``.
    """
    kind = GeometryKind.parse(kind)
    ps = PackedSample([eps.weights], ["tangent vector"])
    y = ps.center(np.asarray(from_evals, dtype=complex))
    p = ps.center(np.asarray(to_evals, dtype=complex))
    if check:
        eps.validate()
    vals = ps.transport(y, p, np.asarray(eps.values, dtype=complex), kind)
    pole_rep = p / ps.norm(p)[0] if kind is GeometryKind.SHAPE else p
    return TangentEvals(grid=eps.grid, values=vals, pole_evals=pole_rep, kind=kind, weights=eps.weights)


def tangent_project(
    values: np.ndarray,
    p_evals: np.ndarray,
    weights: np.ndarray,
    kind: GeometryKind,
    grid: np.ndarray | None = None,
) -> TangentEvals:
    """Orthogonal projection of arbitrary evaluations onto the tangent space at [p].

    Removes the components along the normal directions 1, i*1, i*p̃ (and p̃ for
    shapes) under the empirical inner product.  Mainly a helper for residual
    simulation and for constructing valid test tangents.
    """
    kind = GeometryKind.parse(kind)
    w = np.asarray(weights)
    ps = PackedSample([w], ["tangent vector"])
    v = ps.center(np.asarray(values, dtype=complex))
    p = ps.pole_rep(p_evals, kind)
    p_hat = p / ps.norm(p)
    c = ps.inner(p_hat, v)
    v = v - (c if kind is GeometryKind.SHAPE else 1j * c.imag) * p_hat
    if grid is None:
        grid = np.arange(v.size, dtype=float) / max(v.size - 1, 1)
    return TangentEvals(grid=np.asarray(grid, dtype=float), values=v, pole_evals=p, kind=kind, weights=w)
