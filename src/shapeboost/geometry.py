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

import numpy as np

__all__ = [
    "GeometryKind",
    "CurveSample",
    "DesignBand",
    "PackedSample",
    "TangentEvals",
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


_FLOAT_TINY = float(np.finfo(float).tiny)  # smallest normal float: a squared norm below it has underflowed

# the curve check, in the order its faults are reported; each entry is formatted with its curve's numbers
_CURVE_FAULTS = (
    "grid and values must be equal-length vectors", "grid and values must be finite",
    "need at least 3 evaluation points, got {:d}", "grid must be strictly increasing", "grid must lie in [0, 1]",
    "weights must be finite", "weights must be a vector or a square matrix", "weight vector length does not match grid",
    "diagonal weights must be strictly positive", "weight matrix shape does not match grid",
    "weight matrix must be symmetric", "weight matrix is not positive definite",
    "squared empirical norm overflows (largest |value| {:.3g})",
    "squared empirical norm underflows (largest centred |value| {:.3g})", "values are all equal (degenerate)",
)


def _not_positive_definite(w: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        return True
    return False


def _check_curves(ids: list[str], grids: list, values: list, weights: list) -> tuple[list, list, list]:
    """The one curve check, over packed arrays; returns the curves' grids, values and weights as arrays.

    The first failing curve in order raises ``GeometryError`` naming its first failing check (``_CURVE_FAULTS``).
    A weight matrix that is one object for every curve is validated once.  A curve whose centred norm is at
    most 1e-14 of its own largest |value| is degenerate at any scale; over- and underflow of the squared
    norm are reported only for the others.
    """
    n = len(ids)
    grids = [np.asarray(g, dtype=float) for g in grids]
    values = [np.asarray(v, dtype=complex) for v in values]
    shared = n > 1 and all(w is weights[0] for w in weights)
    weights = [np.asarray(weights[0], dtype=float)] * n if shared else [np.asarray(w, dtype=float) for w in weights]
    bad = np.zeros((len(_CURVE_FAULTS), n), dtype=bool)
    k = np.fromiter((g.size for g in grids), int, n)
    bad[0] = [g.ndim != 1 or v.shape != g.shape for g, v in zip(grids, values)]
    sizes = np.where(bad[0], 0, k)  # grid and values of every curve of the right shape, packed
    seg = np.repeat(np.arange(n), sizes)
    g = np.concatenate([g for g, no in zip(grids, bad[0]) if not no] or [np.empty(0)])
    v = np.concatenate([v for v, no in zip(values, bad[0]) if not no] or [np.empty(0)])
    bad[1] = np.bincount(seg, ~(np.isfinite(g) & np.isfinite(v)), n) > 0
    bad[2] = ~bad[0] & (k < 3)
    bad[3] = np.bincount(seg[1:][(seg[1:] == seg[:-1]) & ~(np.diff(g) > 0)], minlength=n) > 0
    bad[4] = np.bincount(seg[(g < -1e-12) | (g > 1 + 1e-12)], minlength=n) > 0
    bad[5] = np.resize([not np.isfinite(w).all() for w in weights[: 1 if shared else n]], n)
    bad[6] = [w.ndim not in (1, 2) for w in weights]
    bad[7] = [w.ndim == 1 and w.shape != (kk,) for w, kk in zip(weights, k)]
    bad[9] = [w.ndim == 2 and w.shape != (kk, kk) for w, kk in zip(weights, k)]
    idx = np.flatnonzero(~bad[[0, 2, 6, 7, 9]].any(axis=0))  # curves whose arrays fit together
    norms = np.zeros((2, n))  # largest |value| and largest centred |value|, for the messages
    if idx.size:  # one packed sample: the curves of one file share one kind of weights
        ws = [weights[i] for i in idx]
        if ws[0].ndim == 2:
            W = np.stack(ws[:1] if shared else ws)
            tol = 1e-10 * np.maximum(1.0, np.abs(W).max(axis=(1, 2)))
            bad[10, idx] = np.resize(np.abs(W - W.transpose(0, 2, 1)).max(axis=(1, 2)) > tol, idx.size)
            bad[11, idx] = np.resize([_not_positive_definite(w) for w in W], idx.size)
        else:
            bad[8, idx] = np.bincount(np.repeat(np.arange(idx.size), k[idx]), np.concatenate(ws) <= 0, idx.size) > 0
        with np.errstate(all="ignore"):
            packed = PackedSample(ws, [ids[i] for i in idx], [values[i] for i in idx])
            sq = packed.inner(packed.y_c, packed.y_c).real
            norms[:, idx] = [np.maximum.reduceat(np.abs(x), packed.offsets[:-1]) for x in (packed.values, packed.y_c)]
            # centred norm relative to the largest |value|, scaled before squaring: rounding residue never overflows
            largest = norms[0, idx]
            flat = packed.norm(packed.y_c / np.where(largest > 0, largest, 1.0)[packed.seg]) <= 1e-14
        bad[12, idx] = ~np.isfinite(sq) & ~flat
        bad[13, idx] = (sq < _FLOAT_TINY) & ~flat
        bad[14, idx] = flat
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        r = int(np.argmax(bad[:, i]))
        number = {2: k[i], 12: norms[0, i], 13: norms[1, i]}.get(r)  # the one number a message formats, if any
        raise GeometryError(f"curve {ids[i]!r}: " + _CURVE_FAULTS[r].format(number))
    return grids, values, weights


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
        (grid,), (values,), (weights,) = _check_curves([self.id], [self.grid], [self.values], [self.weights])
        self.__dict__.update(grid=grid, values=values, weights=weights)  # the checked arrays

    @classmethod
    def checked(cls, ids: list[str], grids: list, values: list, weights: list) -> list["CurveSample"]:
        """Curves of one sample after one packed check of them all (``_check_curves``)."""
        curves = []
        for id, grid, vals, w in zip(ids, *_check_curves(ids, grids, values, weights)):
            curve = object.__new__(cls)
            curve.__dict__.update(id=id, grid=grid, values=vals, weights=w)  # checked above: no second check
            curves.append(curve)
        return curves

    @property
    def k(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class TangentEvals:
    """A tangent vector at a pole, given by evaluations on one curve's grid.

    ``pole_evals`` holds the pole representative on the same grid (centered,
    and unit-norm for shapes); ``values`` satisfies the tangent constraints
    <1, v> = 0 and Im<v, p> = 0 (plus Re<v, p> = 0 for shapes) up to
    ``TANGENT_TOL`` relative to its norm.  Returned by ``log_map`` and ``parallel_transport``.
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


@dataclass(frozen=True)
class DesignBand:
    """Nonzero band of a stacked real design of shape (N, dim): row r is sum_j vals[r, j] e_cols[r, j].

    ``cols`` and ``vals`` have shape (N, width); a slot of value 0 adds nothing.
    """

    cols: np.ndarray
    vals: np.ndarray
    dim: int

    @classmethod
    def identity(cls, dim: int, n: int) -> "DesignBand":
        """n stacked dim x dim identities: the design of coefficient-level curves."""
        return cls(np.tile(np.arange(dim), n)[:, None], np.ones((n * dim, 1)), dim)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B x for one coefficient vector (dim,) or matrix (dim, c)."""
        x = np.asarray(x)
        return (self.vals.reshape(self.vals.shape + (1,) * (x.ndim - 1)) * x[self.cols]).sum(axis=1)

    def dense(self) -> np.ndarray:
        """The design matrix, (N, dim)."""
        flat = self.cols + self.dim * np.arange(self.cols.shape[0])[:, None]
        return np.bincount(flat.ravel(), self.vals.ravel(), self.cols.shape[0] * self.dim).reshape(-1, self.dim)


def _band_row_sums(prod: np.ndarray) -> np.ndarray:
    """Row sums of a complex band product (N, width), bit for bit ``prod.sum(axis=1)`` in numpy's order.

    numpy adds a row of fewer than four complex values in sequence, and a longer one in four lanes
    (c0 + c4 + ..., c1 + c5 + ...) joined as (l0 + l1) + (l2 + l3), then the remainder in sequence;
    the reduction starts from +0.0.  Column adds skip the per-row overhead of a short reduction.
    """
    if prod.shape[1] > 64:  # numpy splits rows of more than 128 floats in halves: no degree of use builds them
        return prod.sum(axis=1)
    cols = [prod[:, i] for i in range(prod.shape[1])]
    if len(cols) < 4:
        total = 0.0 + cols[0]
        for c in cols[1:]:
            total += c
        return total
    head = len(cols) - len(cols) % 4
    lanes = cols[:4]
    for i in range(4, head, 4):
        lanes = [lane + c for lane, c in zip(lanes, cols[i : i + 4])]
    total = 0.0 + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
    for c in cols[head:]:
        total += c
    return total


_ALIGN_FAILED = "rotation alignment undefined, |<y, p>| = {:.3e} below threshold"
_ANTIPODAL = "transport undefined: <y, p> = {:.6f} ~ -||y|| ||p||"


class PackedSample:
    """Curves of one sample packed into concatenated arrays.

    The rows of curve i are ``offsets[i]:offsets[i + 1]``; ``seg`` maps rows
    to curves.  Weights are a concatenated vector ``w`` or an ``(n, k, k)``
    stack ``W`` of SPD matrices (every curve then has the same k).  ``values``,
    ``y_c`` and ``y_norm`` are the raw and centered observations and the
    norms of the latter, ``band`` the stacked response design, each when
    given.  Exp, Log, parallel transport and geodesic distance act on all
    curves at once; per-curve scalars come back as ``(n,)`` arrays.  A failed
    check raises for the first offending curve.
    """

    def __init__(
        self,
        weights: list[np.ndarray],
        labels: list[str],
        values: list[np.ndarray] | None = None,
        band: DesignBand | None = None,
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
            W = np.stack(weights).astype(float)
            ones_w = W.sum(axis=1).reshape(-1)  # rows of 1^T W_i
            self.W0 = W[0] if (W == W[0]).all() else None  # one matrix shared by every curve (coefficient mode)
            self.W = W if self.W0 is None else np.broadcast_to(self.W0, W.shape)
        elif not any(full):
            self.w = np.concatenate(weights).astype(float)
            self.W = self.W0 = None
            ones_w = self.w
        else:
            raise GeometryError("a sample cannot mix diagonal and full weight matrices")
        self._ones_w = ones_w
        self._ones_ww = self.segsum(ones_w)
        self._set_band(band)
        self.values = None if values is None else np.concatenate(values).astype(complex)
        self.y_c = None if values is None else self.center(self.values)
        self.y_norm = None if values is None else self.norm(self.y_c)

    def _set_band(self, band: DesignBand | None) -> None:
        self.band = band
        if band is not None:
            self._bins = self.seg[:, None] * band.dim + band.cols  # flat (curve, column) index of every slot
            self._pair_bins = (2 * self._bins[:, :, None] + np.arange(2)).ravel()  # and of its (re, im) parts

    @classmethod
    def of(cls, curves: list[CurveSample], band: DesignBand | None = None) -> "PackedSample":
        """Pack a sample of curves, optionally with the band of its stacked response design."""
        return cls([c.weights for c in curves], [f"curve {c.id!r}" for c in curves], [c.values for c in curves], band)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Indices of the packed rows of curves ``idx``, curve after curve."""
        sizes = np.diff(self.offsets)[idx]
        return np.arange(sizes.sum()) + np.repeat(self.offsets[idx] - (np.cumsum(sizes) - sizes), sizes)

    def take(self, idx: np.ndarray) -> "PackedSample":
        """The curves ``idx`` (in that order, repeats allowed) as a packed sample, gathered from this one.

        Every per-curve array is gathered, not recomputed, so each curve keeps its bits.
        """
        idx = np.asarray(idx, dtype=int)
        rows = self.rows(idx)
        sub = object.__new__(PackedSample)
        sub.n = idx.size
        sub.labels = [self.labels[i] for i in idx]
        sub.offsets = np.concatenate(([0], np.cumsum(np.diff(self.offsets)[idx])))
        sub.seg = np.repeat(np.arange(sub.n), np.diff(sub.offsets))
        sub.w = None if self.w is None else self.w[rows]
        sub.W0, sub.W = self.W0, self.W  # no weight matrices, or one shared matrix: not copied per curve
        if self.W0 is not None:
            sub.W = np.broadcast_to(self.W0, (sub.n,) + self.W0.shape)
        elif self.W is not None:
            sub.W = self.W[idx]
        sub._ones_w, sub._ones_ww = self._ones_w[rows], self._ones_ww[idx]
        sub._set_band(None if self.band is None else DesignBand(self.band.cols[rows], self.band.vals[rows], self.band.dim))
        has_values = self.values is not None
        sub.values, sub.y_c = (self.values[rows], self.y_c[rows]) if has_values else (None, None)
        sub.y_norm = self.y_norm[idx] if has_values else None
        return sub

    # -- segment arithmetic ------------------------------------------------

    def segsum(self, x: np.ndarray) -> np.ndarray:
        """Per-curve sums of the rows of a packed array."""
        return np.add.reduceat(x, self.offsets[:-1], axis=0)

    def weigh(self, x: np.ndarray) -> np.ndarray:
        """W_i x_i for every curve; x has shape (N,) or (N, c)."""
        if self.W is None:
            return (self.w if x.ndim == 1 else self.w[:, None]) * x
        n, k = self.W.shape[:2]
        # one product per curve, of the curve's own shapes, so a curve's rows do not depend on the other curves
        if np.iscomplexobj(x):
            # real arithmetic on the (re, im) pairs: W is not copied to complex
            xr = np.ascontiguousarray(x).view(float)
            return (self.W @ xr.reshape(n, k, -1)).reshape(xr.shape).view(complex)
        return (self.W @ x.reshape(n, k, -1)).reshape(x.shape)

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
        """Evaluations B_i f_i of per-curve complex basis coefficients f (n, m0), gathered over the band."""
        return _band_row_sums(self.band.vals * coef.reshape(-1)[self._bins])

    def project(self, v: np.ndarray) -> np.ndarray:
        """Per-curve B_i^T W_i v_i, shape (n, m0), summed into the band's columns."""
        x = (self.band.vals * self.weigh(np.asarray(v, dtype=complex))[:, None]).view(float).ravel()
        return np.bincount(self._pair_bins, x, 2 * self.n * self.band.dim).view(complex).reshape(self.n, -1)

    def design_grams(self) -> np.ndarray:
        """Per-curve B_i^T W_i B_i, shape (n, m0, m0), summed from products of band slots."""
        cols, vals, m0 = self.band.cols, self.band.vals, self.band.dim
        if self.W is None:
            prods = self.w[:, None, None] * (vals[:, :, None] * vals[:, None, :])
            rows = self._bins[:, :, None] * m0 + cols[:, None, :]
        else:
            n, k = self.W.shape[:2]
            c, v, b = cols.reshape(n, k, -1), vals.reshape(n, k, -1), self._bins.reshape(n, k, -1)
            prods = v[:, :, :, None, None] * self.W[:, :, None, :, None] * v[:, None, None, :, :]
            rows = b[:, :, :, None, None] * m0 + c[:, None, None, :, :]
        return np.bincount(rows.ravel(), prods.ravel(), self.n * m0 * m0).reshape(self.n, m0, m0)

    # -- geometry ----------------------------------------------------------

    def pole_rep(self, p_evals: np.ndarray, kind: GeometryKind) -> np.ndarray:
        """Centered (and for shapes unit-norm) pole representative on every curve."""
        p = self.center(np.asarray(p_evals, dtype=complex))
        pn = self.norm(p)
        self.check(pn <= 0, DegenerateAlignment, "pole degenerate on this grid")
        return p / pn[self.seg] if kind is GeometryKind.SHAPE else p

    def align(self, a: np.ndarray, target: np.ndarray, what: str | None = None,
              norms: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rotations u_i making <u_i a_i, target_i> real and positive.

        Returns u (n,) and the mask of curves where |<a, target>| is below
        ``ALIGN_TOL`` relative to the two norms (``norms``, when the caller
        has them); u = 1 where the inner product vanishes.  With ``what``
        given, a flagged curve raises DegenerateAlignment with that message.
        """
        ip = self.inner(a, target)
        aip = np.abs(ip)
        na, nt = (self.norm(a), self.norm(target)) if norms is None else norms
        bad = aip < ALIGN_TOL * na * nt
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

    def log(self, base: np.ndarray, kind: GeometryKind, what: str | None = _ALIGN_FAILED,
            base_norm: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Log_[base]([y]) of the sample's observations, and the geodesic distances.

        ``base`` holds centered representatives, unit norm for shapes, and
        ``base_norm`` their norms when the caller has them.  Forms: ũ ỹ - base.
        Shapes: d (r - <base, r> base) / ||r - <base, r> base|| with the
        normalized aligned curve r and the geodesic distance d; zero where
        [y] = [base].  ``what`` is the message for a degenerate alignment;
        None accepts it, as distances stay defined there.
        """
        nb = self.norm(base) if base_norm is None else base_norm
        u, _ = self.align(self.y_c, base, what, norms=(self.y_norm, nb))
        rep = u[self.seg] * self.y_c
        if kind is GeometryKind.FORM:
            eps = rep - base
            return eps, self.norm(eps)
        rep = rep / self.y_norm[self.seg]
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
        norms: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Parallel transport of ``eps`` from T_[src] to T_[dst] along the geodesic.

        ``src`` and ``dst`` are mutually aligned centered representatives with
        norms ``norms`` (computed when not given) and normalizations ŝ, d̂.
        Shapes: eps - <d̂, eps> (ŝ + d̂) / (1 + <ŝ, d̂>), the spherical
        transport with the complex inner product; forms only rotate the
        Im<d̂, eps> coordinate orthogonal to the real ŝ-d̂ plane.
        """
        ns, nd = (self.norm(src), self.norm(dst)) if norms is None else norms
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


# One-curve wrappers of the packed kernel.  Nothing in the package calls them; they
# stay while the benchmark's traced probes (perfbench/probes.py) check the kernel against them.
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
