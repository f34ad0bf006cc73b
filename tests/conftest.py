import numpy as np
import pytest

from shapeboost.geometry import (
    CurveSample,
    GeometryKind,
    PackedSample,
    TangentEvals,
    trapezoid_weights,
)


@pytest.fixture
def fake_pool(monkeypatch):
    """``concurrent.futures.ProcessPoolExecutor`` replaced by a pool that starts no process: it records each
    pool's ``max_workers`` and the fold chunks of its jobs, and maps them in this process."""
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.record = {"max_workers": max_workers, "chunks": []}
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            self.record["chunks"] = [list(job[-1]) for job in jobs]
            return [fn(job) for job in jobs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return pools


def irregular_grid(rng, k):
    """Strictly increasing irregular grid in [0, 1)."""
    return (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k


def smooth_curve(rng, grid, n_freq=4):
    """Random smooth closed-ish complex curve, generically non-degenerate."""
    v = np.zeros(len(grid), dtype=complex)
    for f in range(1, n_freq + 1):
        v += (rng.normal() + 1j * rng.normal()) * np.exp(2j * np.pi * f * grid) / f
    return v + (rng.normal() + 1j * rng.normal())


def random_spd(rng, k):
    """A random symmetric positive-definite k x k weight matrix (eigenvalues >= 1)."""
    A = rng.normal(size=(k, k))
    return (A @ A.T + A.T @ A) / (2 * k) + np.eye(k)


def tangent_part(ps, v, p_rep, kind):
    """v centred on every curve of ``ps``, without its components along i p̂ (and p̂ for shapes).

    ``p_rep`` is the pole representative (``ps.pole_rep``); the result lies
    in the tangent space at the pole.
    """
    p_hat = p_rep / ps.norm(p_rep)[ps.seg]
    v = ps.center(np.asarray(v, dtype=complex))
    c = ps.inner(p_hat, v)
    return v - (c if kind is GeometryKind.SHAPE else 1j * c.imag)[ps.seg] * p_hat


def random_pole_and_tangent(rng, kind, k=None, norm=None):
    """(grid, weights, pole evals, TangentEvals) with a valid random tangent."""
    kind = GeometryKind.parse(kind)
    if k is None:
        k = int(rng.integers(3, 120))
    grid = irregular_grid(rng, k)
    w = trapezoid_weights(grid)
    p = smooth_curve(rng, grid)
    raw = smooth_curve(rng, grid) + 0.3 * (rng.normal(size=k) + 1j * rng.normal(size=k))
    ps = PackedSample([w], ["tangent"])
    p_rep = ps.pole_rep(p, kind)
    beta = tangent_part(ps, raw, p_rep, kind)
    if norm is None:
        if kind is GeometryKind.SHAPE:
            hi = np.pi / 2 - 0.11
        else:
            # stay inside the chart: larger offsets can realign through a
            # rotation and the quotient distance drops below the tangent norm
            hi = 0.6 * ps.norm(p_rep)[0]
        norm = rng.uniform(0.05 * hi, hi)
    beta = TangentEvals(grid, beta * (norm / ps.norm(beta)[0]), p_rep, kind, w)
    return grid, w, p, beta


def curve_from(vals, grid, w, cid="y"):
    return CurveSample(cid, grid, vals, w)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def tangent_design(grid, transform, basis):
    """Reference complex k x m design of the tangent directions on one grid, B Z_c."""
    return basis.design(np.asarray(grid, dtype=float)) @ transform.complex_columns


def tangent_grams(ps):
    """The tangent Gram stack Re(D_i^H W_i D_i) (n, m, m) of a pole sample."""
    return ps.transform.gram(ps.packed.design_grams())


def residual_projections(ps, coefs):
    """Projected transported residuals (n, m) of a pole sample at per-curve tangent coefficients (n, m)."""
    return ps.project(ps.residuals(ps.predictor(coefs))[0])


def effect_designs(ctx):
    """The covariate design of every effect of a one-fold ``_FitContext``, (n, m_j) each."""
    return [ctx.design[:, b] for b in ctx.blocks]


def additive_coefs(designs, thetas):
    """Tangent coefficients (n, m) of an additive predictor, sum_j X_j Theta_j^T."""
    return sum(design @ theta.T for design, theta in zip(designs, thetas))


def model_coefs(model, covariates, n):
    """Tangent coefficients (n, m) of a fitted model's additive predictor on a covariate table."""
    return additive_coefs([eff.cmap.design(covariates, n) for eff in model.effects], [eff.theta for eff in model.effects])
