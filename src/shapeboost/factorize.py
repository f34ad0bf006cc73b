"""Tensor-product factorization of fitted effects into orthonormal directions.

A fitted effect h_j(x) = sum_{r,l} theta^(r,l) b_j^(l)(x) d_r is rewritten as
sum_r d^(r) xi^(r) hhat^(r)(x) with directions xi^(r) orthonormal under the
empirical product-space inner product and scalar effect functions hhat^(r)
of decreasing variance.  The decomposition is the singular value
decomposition of the coefficient matrix expressed in orthonormalized bases:
with Gram factorizations G_j = M_j^T M_j the matrix Xi = M_0 Theta M_1^T is
decomposed as V_0 D V_1^T and the direction coefficients recovered as
U_j = M_j^- V_j.  Rank-L truncations of the result are optimal among all
rank-L tensor approximations in the empirical norm.

Two Gram factorizations are supported: a (pivoted) Cholesky of the Gram
matrix, and a QR decomposition of the weighted design, which never forms the
Gram product explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import sample_design
from .boost import FittedModel
from .geometry import CurveSample, GeometryError, GeometryKind, PackedSample, center, empirical_norm
from .effects import EffectError, PlsLearner

__all__ = [
    "Factorization",
    "DirectionVisual",
    "factorize_effect",
    "factorize_predictor",
    "effect_factorization",
    "predictor_factorization",
    "direction_visual",
    "model_grams",
]

VISUAL_SEGMENTS = 40  # connecting segments drawn by direction_visual


@dataclass
class Factorization:
    """Variance-ordered orthonormal decomposition of a tensor-product effect."""

    directions: np.ndarray  # (m, ncomp): coefficients of xi^(r) in the tangent basis
    singular_values: np.ndarray  # (ncomp,), non-increasing
    scalar_coefs: np.ndarray  # (m_j, ncomp): coefficients of hhat^(r) in the covariate basis
    variance_shares: np.ndarray  # (ncomp,): component variances d_r^2, summing to the total
    effect_names: list[str] = field(default_factory=list)
    effect_slices: list[slice] = field(default_factory=list)
    sub_variances: np.ndarray | None = None  # (n_effects, ncomp) per-effect variance within components

    @property
    def total_variance(self) -> float:
        return float(self.variance_shares.sum())


def _gram_sqrt(G: np.ndarray) -> np.ndarray:
    """M with M^T M = G via pivoted Cholesky; rank-deficient Grams reduce M's rows."""
    G = 0.5 * (G + G.T)
    m = G.shape[0]
    c, piv, rank, info = scipy.linalg.lapack.dpstrf(G, lower=1, tol=1e-12 * max(np.trace(G), 1e-300))
    if info < 0:
        raise GeometryError("pivoted Cholesky of the Gram matrix failed")
    L = np.tril(c)[:, :rank]
    P = np.zeros((m, m))
    P[piv - 1, np.arange(m)] = 1.0
    return (P @ L).T  # (rank, m)


def _design_sqrt(A: np.ndarray) -> np.ndarray:
    """M = R from the QR decomposition of a stacked weighted design."""
    R = np.linalg.qr(A, mode="r")
    return R


def _generalized_inverse(M: np.ndarray) -> np.ndarray:
    """M^- = M^T (M M^T)^{-1}, with a pseudo-inverse fallback for deficient M."""
    return PlsLearner(M @ M.T, None, "Gram factor").solve(M).T


def factorize_effect(
    theta: np.ndarray,
    G0: np.ndarray | None = None,
    G1: np.ndarray | None = None,
    method: str = "cholesky",
    A0: np.ndarray | None = None,
    A1: np.ndarray | None = None,
) -> Factorization:
    """Factorize one coefficient matrix into orthonormal direction components.

    ``cholesky`` consumes the Gram matrices, ``qr`` the stacked weighted
    designs (A^T A = G).  Columns of the singular vector matrix on the
    direction side are sign-fixed so the first clearly nonzero entry is
    positive.
    """
    theta = np.asarray(theta, dtype=float)
    if method == "cholesky":
        if G0 is None or G1 is None:
            raise EffectError("cholesky factorization needs both Gram matrices")
        M0 = _gram_sqrt(np.asarray(G0))
        M1 = _gram_sqrt(np.asarray(G1))
    elif method == "qr":
        if A0 is None or A1 is None:
            raise EffectError("qr factorization needs both stacked designs")
        M0 = _design_sqrt(np.asarray(A0))
        M1 = _design_sqrt(np.asarray(A1))
    else:
        raise EffectError(f"unknown factorization method {method!r}")

    Xi = M0 @ theta @ M1.T
    V0, d, V1t = np.linalg.svd(Xi, full_matrices=False)
    V1 = V1t.T
    # reproducible sign convention: first non-negligible entry of each direction positive
    for r in range(d.size):
        col = V0[:, r]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            V0[:, r] = -col
            V1[:, r] = -V1[:, r]
    U0 = _generalized_inverse(M0) @ V0
    U1 = _generalized_inverse(M1) @ V1
    return Factorization(
        directions=U0,
        singular_values=d,
        scalar_coefs=U1 * d[None, :],
        variance_shares=d**2,
    )


def _packed(model: FittedModel, sample: list[CurveSample]) -> PackedSample:
    return PackedSample.of(sample, sample_design(model.basis, sample, model.coef_mode))


def model_grams(model: FittedModel, sample: list[CurveSample], covariates: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """Empirical tangent Gram G0 = mean_i Re(D_i^H W_i D_i) and per-effect covariate designs."""
    G0 = model.transform.gram(_packed(model, sample).design_grams().mean(axis=0))
    n = len(sample)
    designs = [eff.cmap.design(covariates, n) for eff in model.effects]
    return G0, designs


def _tangent_design_stack(model: FittedModel, sample: list[CurveSample]) -> np.ndarray:
    """Real stacked weighted tangent design A0 with A0^T A0 = G0 (QR variant input).

    Per curve, the real rows of its whitened tangent design R_i D_i are
    followed by the imaginary ones.
    """
    packed = _packed(model, sample)
    SD = packed.whiten(packed.design @ model.transform.complex_columns)
    rows = np.arange(SD.shape[0])
    A0 = np.empty((2 * SD.shape[0], SD.shape[1]))
    A0[rows + packed.offsets[packed.seg]] = SD.real
    A0[rows + packed.offsets[packed.seg + 1]] = SD.imag
    return A0 / np.sqrt(len(sample))


def effect_factorization(
    model: FittedModel,
    sample: list[CurveSample],
    covariates: dict,
    effect_name: str,
    method: str = "cholesky",
) -> Factorization:
    """Factorize one fitted effect under the model's empirical inner products."""
    keep = [k for k, eff in enumerate(model.effects) if eff.spec.name == effect_name]
    if not keep:
        raise EffectError(f"unknown effect {effect_name!r}")
    return _factorize_effects(model, sample, covariates, keep[:1], method)


def factorize_predictor(
    thetas: list[np.ndarray],
    names: list[str],
    G0: np.ndarray,
    designs: list[np.ndarray],
    method: str = "cholesky",
    A0: np.ndarray | None = None,
) -> Factorization:
    """Joint factorization of the additive predictor over stacked covariate bases.

    Stacks all effects' coefficient matrices column-wise, factorizes against
    the joint empirical covariate Gram (including cross-effect correlation),
    and reports each effect's variance within every component.
    """
    theta_all = np.hstack(thetas)
    B_all = np.hstack(designs)
    n = B_all.shape[0]
    if method == "qr":
        if A0 is None:
            raise EffectError("qr predictor factorization needs the stacked tangent design")
        fac = factorize_effect(theta_all, method="qr", A0=A0, A1=B_all / np.sqrt(n))
    else:
        fac = factorize_effect(theta_all, G0=G0, G1=B_all.T @ B_all / n, method="cholesky")
    slices = []
    off = 0
    for th in thetas:
        slices.append(slice(off, off + th.shape[1]))
        off += th.shape[1]
    fac.effect_names = list(names)
    fac.effect_slices = slices
    ncomp = fac.singular_values.size
    sub = np.zeros((len(thetas), ncomp))
    for j, sl in enumerate(slices):
        evals = designs[j] @ fac.scalar_coefs[sl, :]  # (n, ncomp) per-effect scalar components
        sub[j] = np.mean(evals**2, axis=0)
    fac.sub_variances = sub
    return fac


def predictor_factorization(
    model: FittedModel,
    sample: list[CurveSample],
    covariates: dict,
    method: str = "cholesky",
) -> Factorization:
    """Joint factorization of all fitted effects (see ``factorize_predictor``)."""
    return _factorize_effects(model, sample, covariates, list(range(len(model.effects))), method)


def _factorize_effects(
    model: FittedModel, sample: list[CurveSample], covariates: dict, keep: list[int], method: str
) -> Factorization:
    """Joint factorization of the effects with indices ``keep``."""
    G0, designs = model_grams(model, sample, covariates)
    A0 = _tangent_design_stack(model, sample) if method == "qr" else None
    return factorize_predictor(
        [model.effects[k].theta for k in keep],
        [model.effects[k].spec.name for k in keep],
        G0,
        [designs[k] for k in keep],
        method=method,
        A0=A0,
    )


@dataclass
class DirectionVisual:
    """Polylines for plotting a direction: pole, displaced curve, connecting segments."""

    grid: np.ndarray
    pole_polyline: np.ndarray  # complex (n_points,)
    displaced_polyline: np.ndarray  # complex (n_points,)
    segments: list[tuple[complex, complex]]


def direction_visual(
    model: FittedModel,
    xi: np.ndarray,
    tau: float,
    n_points: int = 200,
) -> DirectionVisual:
    """Pole representative and Exp_p(tau * xi) on a dense uniform grid.

    The display pairs the pole polyline with the curve reached by moving tau
    units along the direction, plus connecting segments between corresponding
    points for reading off the displacement.
    """
    from .geometry import trapezoid_weights

    if model.coef_mode:
        raise EffectError("direction_visual needs evaluation-level curves, not coefficient mode")
    grid = np.linspace(0.0, 1.0, n_points)
    w = trapezoid_weights(grid)
    B = model.basis.design(grid)
    p_c = center(B @ model.pole.coef, w)
    pn = empirical_norm(p_c, w)
    p_rep = p_c / pn if model.kind is GeometryKind.SHAPE else p_c
    D = B @ model.transform.complex_columns
    xv = D @ (tau * np.asarray(xi, dtype=float))
    if model.kind is GeometryKind.SHAPE:
        nh = empirical_norm(xv, w)
        if nh >= np.pi:
            raise GeometryError(f"tau * ||xi|| = {nh:.4f} leaves the shape exponential's domain")
        disp = np.cos(nh) * p_rep + (np.sin(nh) / nh if nh > 1e-12 else 1.0) * xv
    else:
        disp = p_rep + xv
    step = max(1, n_points // VISUAL_SEGMENTS)
    segments = [(complex(p_rep[i]), complex(disp[i])) for i in range(0, n_points, step)]
    return DirectionVisual(grid=grid, pole_polyline=p_rep, displaced_polyline=disp, segments=segments)
