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

Each Gram matrix is rooted by its symmetric eigendecomposition,
G = W diag(w) W^T, as M = diag(sqrt(w)) W^T.  Eigenvalues at most 1e-12 of
the trace are cut, so a rank-deficient Gram gives fewer components, and the
root has orthogonal rows, so M^- = W diag(1 / sqrt(w)) needs no solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import serial_blas
from .boost import FittedModel, model_sample
from .geometry import CurveSample, GeometryError, GeometryKind, PackedSample, trapezoid_weights
from .effects import EffectError

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
    sub_variances: np.ndarray | None = None  # (n_effects, ncomp) per-effect variance within components

    @property
    def total_variance(self) -> float:
        return float(self.variance_shares.sum())


def _gram_sqrt(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, M^-) with M^T M = G and M M^- = I, from the symmetric eigendecomposition of G.

    Rows whose eigenvalue is at most 1e-12 of the trace of G are dropped, so
    a rank-deficient Gram gives fewer rows.
    """
    G = 0.5 * (G + G.T)
    w, W = np.linalg.eigh(G)
    w, W = w[::-1], W[:, ::-1]
    keep = w > 1e-12 * max(float(np.trace(G)), 1e-300)
    root = np.sqrt(w[keep])
    return root[:, None] * W[:, keep].T, W[:, keep] / root


def factorize_effect(theta: np.ndarray, G0: np.ndarray, G1: np.ndarray) -> Factorization:
    """Factorize one coefficient matrix under the Gram matrices G0 (tangent) and G1 (covariate).

    Directions are sign-fixed so the first clearly nonzero coefficient of
    each is positive; the scalar coefficients flip with them.  The convention
    acts on the tangent coefficients, not on the root's coordinates, so it
    does not depend on how the Gram matrices are rooted.
    """
    theta = np.asarray(theta, dtype=float)
    M0, M0inv = _gram_sqrt(np.asarray(G0))
    M1, M1inv = _gram_sqrt(np.asarray(G1))
    V0, d, V1t = np.linalg.svd(M0 @ theta @ M1.T, full_matrices=False)
    U0 = M0inv @ V0
    U1 = M1inv @ V1t.T
    # reproducible sign convention: first clearly nonzero entry of each direction positive
    for r in range(d.size):
        col = U0[:, r]
        nz = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
        if nz.size and col[nz[0]] < 0:
            U0[:, r] = -col
            U1[:, r] = -U1[:, r]
    return Factorization(
        directions=U0,
        singular_values=d,
        scalar_coefs=U1 * d[None, :],
        variance_shares=d**2,
    )


@serial_blas
def model_grams(model: FittedModel, sample: list[CurveSample], covariates: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """Empirical tangent Gram G0 = mean_i Re(D_i^H W_i D_i) and per-effect covariate designs."""
    G0 = model.transform.gram(model_sample(model, sample).packed.design_grams().mean(axis=0))
    n = len(sample)
    designs = [eff.cmap.design(covariates, n) for eff in model.effects]
    return G0, designs


@serial_blas
def effect_factorization(
    model: FittedModel,
    sample: list[CurveSample],
    covariates: dict,
    effect_name: str,
    grams: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> Factorization:
    """Factorize one fitted effect under the model's empirical inner products; ``grams`` is ``model_grams``'s result."""
    keep = [k for k, eff in enumerate(model.effects) if eff.spec.name == effect_name]
    if not keep:
        raise EffectError(f"unknown effect {effect_name!r}")
    return _factorize_effects(model, sample, covariates, keep[:1], grams)


def factorize_predictor(
    thetas: list[np.ndarray],
    names: list[str],
    G0: np.ndarray,
    designs: list[np.ndarray],
) -> Factorization:
    """Joint factorization of the additive predictor over stacked covariate bases.

    Stacks all effects' coefficient matrices column-wise, factorizes against
    the joint empirical covariate Gram (including cross-effect correlation),
    and reports each effect's variance within every component.
    """
    theta_all = np.hstack(thetas)
    B_all = np.hstack(designs)
    fac = factorize_effect(theta_all, G0, B_all.T @ B_all / B_all.shape[0])
    slices = []
    off = 0
    for th in thetas:
        slices.append(slice(off, off + th.shape[1]))
        off += th.shape[1]
    fac.effect_names = list(names)
    ncomp = fac.singular_values.size
    sub = np.zeros((len(thetas), ncomp))
    for j, sl in enumerate(slices):
        evals = designs[j] @ fac.scalar_coefs[sl, :]  # (n, ncomp) per-effect scalar components
        sub[j] = np.mean(evals**2, axis=0)
    fac.sub_variances = sub
    return fac


@serial_blas
def predictor_factorization(
    model: FittedModel,
    sample: list[CurveSample],
    covariates: dict,
    grams: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> Factorization:
    """Joint factorization of all fitted effects (see ``factorize_predictor``); ``grams`` as above."""
    return _factorize_effects(model, sample, covariates, list(range(len(model.effects))), grams)


def _factorize_effects(
    model: FittedModel, sample: list[CurveSample], covariates: dict, keep: list[int], grams
) -> Factorization:
    """Joint factorization of the effects with indices ``keep``."""
    G0, designs = model_grams(model, sample, covariates) if grams is None else grams
    return factorize_predictor(
        [model.effects[k].theta for k in keep],
        [model.effects[k].spec.name for k in keep],
        G0,
        [designs[k] for k in keep],
    )


@dataclass
class DirectionVisual:
    """Polylines for plotting a direction: pole, displaced curve, connecting segments."""

    grid: np.ndarray
    pole_polyline: np.ndarray  # complex (n_points,)
    displaced_polyline: np.ndarray  # complex (n_points,)
    segments: list[tuple[complex, complex]]


@serial_blas
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
    grid = np.linspace(0.0, 1.0, n_points)
    w = trapezoid_weights(grid)
    B = model.basis.design(grid)
    grid_sample = PackedSample([w], ["pole"])
    p_rep = grid_sample.pole_rep(B @ model.pole.coef, model.kind)
    D = B @ model.transform.complex_columns
    xv = D @ (tau * np.asarray(xi, dtype=float))
    if model.kind is GeometryKind.SHAPE:
        nh = float(grid_sample.norm(xv)[0])
        if nh >= np.pi:
            raise GeometryError(f"tau * ||xi|| = {nh:.4f} leaves the shape exponential's domain")
        disp = np.cos(nh) * p_rep + (np.sin(nh) / nh if nh > 1e-12 else 1.0) * xv
    else:
        disp = p_rep + xv
    step = max(1, n_points // VISUAL_SEGMENTS)
    segments = [(complex(p_rep[i]), complex(disp[i])) for i in range(0, n_points, step)]
    return DirectionVisual(grid=grid, pole_polyline=p_rep, displaced_polyline=disp, segments=segments)
