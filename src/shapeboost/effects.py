"""Covariate effect bases, PLS normal equations and degrees-of-freedom control.

Every effect is a tensor product of the tangent directions with a scalar
covariate basis.  Identifiability constraints (sum-to-zero, centering around
marginal or parent effects) are absorbed by reparameterizing the covariate
design into the null space of the constraint rows, so fitted coefficient
matrices are unconstrained.

For coefficients arranged column-major as vec(Theta) the penalized normal
equations have Kronecker structure

    Psi = sum_i b(x_i) b(x_i)^T (x) G_i,      G_i = Re(D_i^H W_i D_i),
    psi = sum_i b(x_i) (x) Re(D_i^H W_i eps_i),

with D_i the complex tangent design of curve i.  Base-learner flexibility is
equalized by calibrating a single penalty scale to a target of effective
degrees of freedom trace[(Psi + R(lambda))^{-1} Psi].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import BSplineBasis, SplineConfig, build_response_basis, nullspace

__all__ = [
    "EffectError",
    "EffectSpec",
    "CovariateMap",
    "covariate_design",
    "curve_gram",
    "curve_proj",
    "assemble_psi_matrix",
    "assemble_psi_vector",
    "PlsLearner",
    "df_to_lambda",
    "vec",
    "unvec",
]

EFFECT_KINDS = ("constant", "linear", "categorical", "smooth", "smooth_interaction")
CENTERINGS = ("none", "sum_to_zero", "around_marginals")
PENALTIES = ("ridge", "second_diff", "none")


class EffectError(ValueError):
    """Invalid effect specification or covariate data."""


@dataclass(frozen=True)
class EffectSpec:
    """Declarative configuration of one covariate effect (base-learner)."""

    name: str
    kind: str
    covariates: tuple[str, ...] = ()
    covariate_basis: SplineConfig | None = None
    df_target: float = 4.0
    penalty_covariate: str = "ridge"
    penalty_tangent: str = "inherit"
    centering: str = "sum_to_zero"
    parents: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "parents", tuple(self.parents))
        if self.kind not in EFFECT_KINDS:
            raise EffectError(f"effect {self.name!r}: unknown kind {self.kind!r}")
        if self.centering not in CENTERINGS:
            raise EffectError(f"effect {self.name!r}: unknown centering {self.centering!r}")
        if self.penalty_covariate not in PENALTIES:
            raise EffectError(f"effect {self.name!r}: unknown penalty {self.penalty_covariate!r}")
        if self.penalty_tangent not in PENALTIES + ("inherit",):
            raise EffectError(f"effect {self.name!r}: unknown tangent penalty {self.penalty_tangent!r}")
        n_cov = {"constant": 0, "linear": 1, "categorical": 1, "smooth": 1, "smooth_interaction": 2}[self.kind]
        if len(self.covariates) != n_cov:
            raise EffectError(
                f"effect {self.name!r}: kind {self.kind!r} needs {n_cov} covariate(s), got {len(self.covariates)}"
            )
        if self.df_target <= 0:
            raise EffectError(f"effect {self.name!r}: df_target must be positive")
        if self.kind in ("smooth", "smooth_interaction") and self.covariate_basis is None:
            object.__setattr__(self, "covariate_basis", SplineConfig(degree=3, n_knots=4))

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind,
            "covariates": list(self.covariates),
            "df_target": self.df_target,
            "penalty_covariate": self.penalty_covariate,
            "penalty_tangent": self.penalty_tangent,
            "centering": self.centering,
            "parents": list(self.parents),
        }
        if self.covariate_basis is not None:
            d["covariate_basis"] = self.covariate_basis.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EffectSpec":
        basis = d.get("covariate_basis")
        return cls(
            name=str(d["name"]),
            kind=str(d["kind"]),
            covariates=tuple(d.get("covariates", ())),
            covariate_basis=SplineConfig.from_dict(basis) if basis else None,
            df_target=float(d.get("df_target", 4.0)),
            penalty_covariate=str(d.get("penalty_covariate", "ridge")),
            penalty_tangent=str(d.get("penalty_tangent", "inherit")),
            centering=str(d.get("centering", "sum_to_zero")),
            parents=tuple(d.get("parents", ())),
        )


def _get_column(table: dict, name: str, n: int) -> np.ndarray:
    if name not in table:
        raise EffectError(f"missing covariate column {name!r}")
    col = np.asarray(table[name])
    if col.shape != (n,):
        raise EffectError(f"covariate column {name!r} has length {col.size}, expected {n}")
    return col


def _numeric_column(table: dict, name: str, n: int) -> np.ndarray:
    col = _get_column(table, name, n)
    try:
        values = col.astype(float)
    except ValueError:
        raise EffectError(f"covariate column {name!r} must be numeric") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EffectError(f"covariate column {name!r}: non-finite value {str(col[bad[0]])!r} in curve row {bad[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~np.isfinite((values - np.mean(values)) ** 2))
    if bad.size:
        # the largest magnitude is the culprit, also when the mean itself overflows
        row = bad[np.argmax(np.abs(values[bad]))]
        raise EffectError(f"covariate column {name!r}: value {str(col[row])!r} in curve row {row} overflows when "
                          f"squared about the column mean")
    return values


@dataclass
class _Margin:
    """One marginal scalar basis of a smooth term: spline over a covariate range."""

    basis: BSplineBasis
    lo: float
    hi: float

    def design(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        span = self.hi - self.lo
        t = np.clip((z - self.lo) / span, 0.0, 1.0) if span > 0 else np.zeros_like(z)
        return self.basis.design(t)

    def to_dict(self) -> dict:
        return {"basis": self.basis.to_dict(), "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, d: dict) -> "_Margin":
        return cls(basis=BSplineBasis.from_dict(d["basis"]), lo=float(d["lo"]), hi=float(d["hi"]))


@dataclass
class CovariateMap:
    """Fitted covariate design of one effect, reusable at prediction time.

    Holds the raw basis (contrasts, centered column, spline margins), the
    constraint reparameterization ``Zc`` (raw dim x m_j, None for identity)
    and the penalty on the reparameterized coefficients.
    """

    spec: EffectSpec
    m_j: int
    penalty: np.ndarray
    Zc: np.ndarray | None = None
    levels: list[str] | None = None
    z_mean: float | None = None
    margins: list[_Margin] = field(default_factory=list)

    def raw_design(self, table: dict, n: int) -> np.ndarray:
        """Raw basis rows (n, raw dim) of a covariate table, before the constraint reparameterization."""
        spec = self.spec
        if spec.kind == "constant":
            return np.ones((n, 1))
        if spec.kind == "categorical":
            # effect coding: level k < K-1 is the unit row e_k, the last level is all -1
            col = _get_column(table, spec.covariates[0], n).astype(str)
            levels = np.array(self.levels)
            idx = np.minimum(np.searchsorted(levels, col), levels.size - 1)
            unseen = np.flatnonzero(levels[idx] != col)
            if unseen.size:
                raise EffectError(
                    f"effect {spec.name!r}: unseen categorical level {str(col[unseen[0]])!r} in curve row {unseen[0]}"
                    f" (known: {self.levels})"
                )
            coding = np.vstack([np.eye(levels.size - 1), -np.ones(levels.size - 1)])
            return coding[idx]
        z = [_numeric_column(table, cov, n) for cov in spec.covariates]
        if spec.kind == "linear":
            return (z[0] - self.z_mean)[:, None]
        if spec.kind == "smooth":
            return self.margins[0].design(z[0])
        B1, B2 = (margin.design(zc) for margin, zc in zip(self.margins, z))
        # row-wise product of the marginal designs
        return (B1[:, :, None] * B2[:, None, :]).reshape(n, -1)

    def design(self, table: dict, n: int) -> np.ndarray:
        """Covariate design (n, m_j) of a table: the raw rows in the constrained parameterization."""
        raw = self.raw_design(table, n)
        return raw if self.Zc is None else raw @ self.Zc

    def row(self, x: dict) -> np.ndarray:
        """Covariate row (m_j,) of one record: ``design`` of a one-row table."""
        return self.design({cov: np.array([x[cov]]) for cov in self.spec.covariates}, 1)[0]

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "m_j": self.m_j,
            "penalty": self.penalty.tolist(),
            "Zc": None if self.Zc is None else self.Zc.tolist(),
            "levels": self.levels,
            "z_mean": self.z_mean,
            "margins": [m.to_dict() for m in self.margins],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CovariateMap":
        """Read a stored map and check that its parts fit together."""
        cmap = cls(
            spec=EffectSpec.from_dict(d["spec"]),
            m_j=int(d["m_j"]),
            penalty=np.asarray(d["penalty"], dtype=float),
            Zc=None if d.get("Zc") is None else np.asarray(d["Zc"], dtype=float),
            levels=d.get("levels"),
            z_mean=d.get("z_mean"),
            margins=[_Margin.from_dict(m) for m in d.get("margins", [])],
        )
        kind, label = cmap.spec.kind, f"effect {cmap.spec.name!r}"
        n_margins = {"smooth": 1, "smooth_interaction": 2}.get(kind, 0)
        if len(cmap.margins) != n_margins:
            raise EffectError(f"{label}: a {kind} map needs {n_margins} spline margins, got {len(cmap.margins)}")
        if kind == "categorical" and not (isinstance(cmap.levels, list) and len(cmap.levels) >= 2):
            raise EffectError(f"{label}: a categorical map needs >= 2 levels, got {cmap.levels!r}")
        z_mean = cmap.z_mean
        if kind == "linear" and not (
            isinstance(z_mean, (int, float)) and not isinstance(z_mean, bool) and math.isfinite(z_mean)
        ):
            raise EffectError(f"{label}: a linear map needs a finite number z_mean, got {z_mean!r}")
        raw_dim = len(cmap.levels) - 1 if kind == "categorical" else math.prod(m.basis.dim for m in cmap.margins)
        zc_shape = (raw_dim, raw_dim) if cmap.Zc is None else cmap.Zc.shape  # no Zc: the identity
        if zc_shape != (raw_dim, cmap.m_j):
            raise EffectError(f"{label}: Zc has shape {zc_shape}, expected {(raw_dim, cmap.m_j)} (raw dim, m_j)")
        if cmap.penalty.shape != (cmap.m_j, cmap.m_j):
            raise EffectError(f"{label}: penalty has shape {cmap.penalty.shape}, expected {(cmap.m_j, cmap.m_j)}")
        return cmap


def _build_margin(cfg: SplineConfig, z: np.ndarray) -> _Margin:
    lo, hi = float(np.min(z)), float(np.max(z))
    if hi <= lo:
        raise EffectError("smooth covariate is constant; cannot build a spline basis")
    t = (z - lo) / (hi - lo)
    basis = build_response_basis(cfg, t)
    return _Margin(basis=basis, lo=lo, hi=hi)


def _raw_penalty(cmap: CovariateMap, dim: int) -> np.ndarray:
    """Penalty on the raw covariate coefficients; second differences only act on spline margins."""
    kind = cmap.spec.penalty_covariate
    if kind == "ridge":
        return np.eye(dim)
    if kind == "none" or not cmap.margins:
        return np.zeros((dim, dim))
    if len(cmap.margins) == 1:
        return cmap.margins[0].basis.penalty(kind)
    # interaction: marginal second differences summed over the tensor product
    P1, P2 = (margin.basis.penalty(kind) for margin in cmap.margins)
    return np.kron(P1, np.eye(P2.shape[0])) + np.kron(np.eye(P1.shape[0]), P2)


def covariate_design(
    spec: EffectSpec,
    table: dict,
    n: int,
    parent_designs: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, CovariateMap]:
    """Build the n x m_j covariate design of one effect plus its reparameterization.

    Linear effects use a single centered column, categorical effects effect
    coding (K-1 contrast columns, the last level coded -1), smooth effects a
    B-spline design over the observed covariate range, and interactions the
    row-wise product of the marginal designs.  Constraints are imposed by
    reparameterizing into the null space of the constraint rows: sum-to-zero
    uses the intercept row, marginal/parent centering adds the parent design
    columns (projection against the parent design).
    """
    cmap = CovariateMap(spec=spec, m_j=0, penalty=np.zeros((0, 0)))
    # fit the map's state from the data; the rows themselves come from cmap.raw_design
    if spec.kind == "categorical":
        levels = sorted({str(v) for v in _get_column(table, spec.covariates[0], n)})
        if len(levels) < 2:
            raise EffectError(f"effect {spec.name!r}: categorical covariate needs >= 2 levels")
        cmap.levels = levels
    else:
        z = [_numeric_column(table, cov, n) for cov in spec.covariates]
        if spec.kind == "linear":
            cmap.z_mean = float(np.mean(z[0])) if spec.centering != "none" else 0.0
        elif spec.kind != "constant":
            cmap.margins = [_build_margin(spec.covariate_basis, zc) for zc in z]
    raw = cmap.raw_design(table, n)
    P_raw = _raw_penalty(cmap, raw.shape[1])

    constraints: list[np.ndarray] = []
    # mean subtraction / effect coding already centers linear and categorical terms
    if spec.centering in ("sum_to_zero", "around_marginals") and spec.kind in ("smooth", "smooth_interaction"):
        constraints.append(np.ones((1, n)) @ raw)
    if spec.centering == "around_marginals":
        if spec.kind == "smooth_interaction":
            for margin, zc in zip(cmap.margins, z):
                constraints.append(margin.design(zc).T @ raw)
        if spec.parents:
            if parent_designs is None:
                raise EffectError(f"effect {spec.name!r}: parent designs not supplied")
            for parent in spec.parents:
                if parent not in parent_designs:
                    raise EffectError(f"effect {spec.name!r}: unknown parent effect {parent!r}")
                constraints.append(parent_designs[parent].T @ raw)
        if spec.kind not in ("smooth_interaction",) and not spec.parents:
            raise EffectError(
                f"effect {spec.name!r}: around_marginals centering needs parents or an interaction"
            )

    if constraints:
        C = np.vstack(constraints)
        Zc, _ = nullspace(C, abs_tol=1e-10 * n * max(1.0, float(np.abs(raw).max())))
        if Zc.shape[1] == 0:
            raise EffectError(f"effect {spec.name!r}: constraints leave no free coefficients")
        cmap.Zc = Zc
        design = raw @ Zc
        cmap.penalty = Zc.T @ P_raw @ Zc
    else:
        cmap.Zc = None
        design = raw
        cmap.penalty = P_raw
    cmap.penalty = 0.5 * (cmap.penalty + cmap.penalty.T)
    cmap.m_j = design.shape[1]
    return design, cmap


# ---------------------------------------------------------------------------
# normal equations and PLS


def curve_gram(D: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Tangent Gram block G = Re(D^H W D) of one curve."""
    if weights.ndim == 2:
        G = (np.conj(D.T) @ weights @ D).real
    else:
        G = (np.conj(D.T) * weights) @ D
        G = G.real
    return 0.5 * (G + G.T)


def curve_proj(D: np.ndarray, weights: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Projection Re(D^H W eps) of one curve's residual onto the tangent directions."""
    if weights.ndim == 2:
        return (np.conj(D.T) @ (weights @ eps)).real
    return (np.conj(D.T) @ (weights * eps)).real


def assemble_psi_matrix(cov_design: np.ndarray, grams: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Psi = sum_i b(x_i) b(x_i)^T (x) G_i for column-major vec(Theta).

    One GEMM of the row-wise outer products b_i b_i^T (n x m_j^2) with the
    flattened gram stack G_i (n x m^2), reshaped into the Kronecker layout.
    """
    G = np.asarray(grams)
    n, m_j = cov_design.shape
    m = G.shape[1]
    outer = (cov_design[:, :, None] * cov_design[:, None, :]).reshape(n, -1)
    Psi = (outer.T @ G.reshape(n, -1)).reshape(m_j, m_j, m, m).transpose(0, 2, 1, 3).reshape(m * m_j, m * m_j)
    return 0.5 * (Psi + Psi.T)


def assemble_psi_vector(cov_design: np.ndarray, projs: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """psi = sum_i b(x_i) (x) g_i with g_i = Re(D_i^H W_i eps_i)."""
    G = np.asarray(projs)  # (n, m)
    # sum_i kron(b_i, g_i) = vec-major stack of G^T @ cov_design columns
    return (G.T @ cov_design).T.reshape(-1)


def vec(theta: np.ndarray) -> np.ndarray:
    """Column-major vectorization (theta^(1,1), ..., theta^(m,1), theta^(1,2), ...)."""
    return theta.reshape(-1, order="F")


def unvec(v: np.ndarray, m: int, m_j: int) -> np.ndarray:
    return v.reshape(m, m_j, order="F")


def _kron_rotate(Psi: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(U (x) V)^T Psi (U (x) V), one Kronecker factor and one side at a time."""
    mj, m = U.shape[0], V.shape[0]
    T = Psi.reshape(mj, m, mj, m) @ V  # [i, k, j, d]
    T = np.swapaxes(T, 1, 3) @ V  # [i, d, j, b]
    T = np.moveaxis(T, 0, -1) @ U  # [d, j, b, a]
    T = np.moveaxis(T, 1, -1) @ U  # [d, b, a, c]
    return T.transpose(2, 1, 3, 0).reshape(mj * m, mj * m)


def _kron_sum_abs_max(P_cov: np.ndarray, P_tan: np.ndarray) -> float:
    """max |S| of S = sym(P_cov (x) I + I (x) P_tan), sym(X) = (X + X^T) / 2, from its factors.

    S has P_cov[i, i] + P_tan[k, k] on its diagonal, the off-diagonal
    entries of the symmetric parts of P_cov and P_tan elsewhere, and zeros;
    for finite factors the maximum equals that of the dense S bit for bit.
    """
    scale = np.abs(np.diag(P_cov)[:, None] + np.diag(P_tan)[None, :]).max()
    for P in (P_cov, P_tan):
        sym = np.abs(0.5 * (P + P.T))
        np.fill_diagonal(sym, 0.0)
        scale = max(scale, sym.max())
    return float(scale)


def _whitened_eigh(rotate, P_cov: np.ndarray, b: np.ndarray, s_scale: float):
    """eigh(diag(c) rotate(U) diag(c)) with a, U = eigh(P_cov) and c = s^{-1/2}: (mu, W, U, c).

    s = a_i + b_k are the eigenvalues of S (row-major in i, k), plus the ridge delta = 1e-8 max|S| on
    a singular S (min s < 1e-10 max|S|); ``rotate(U)`` is the system in the eigenbasis of S.
    """
    a, U = np.linalg.eigh(P_cov)
    s = (a[:, None] + b[None, :]).reshape(-1)
    if s.min() < 1e-10 * s_scale:
        s = s + 1e-8 * s_scale
    c = 1.0 / np.sqrt(s)
    M = rotate(U)
    M *= c
    M *= c[:, None]
    return (*np.linalg.eigh(M), U, c)  # eigh reads the lower triangle: M needs no symmetrizing


def _spectrum(Psi: np.ndarray, P_cov: np.ndarray, P_tan: np.ndarray,
              tan_eig: tuple[np.ndarray, np.ndarray] | None = None):
    """Psi in the Demmler-Reinsch basis of S = P_cov (x) I + I (x) P_tan: (mu, T, penalized).

    With V, b = ``tan_eig`` = eigh(P_tan) (computed when not given), U (x) V is the eigenbasis of S,
    diag(c) (U (x) V)^T Psi (U (x) V) diag(c) = W diag(mu) W^T (``_whitened_eigh``) and T = (U (x) V)
    diag(c) W, applied one Kronecker factor at a time.  S = 0: T = W of eigh(Psi), unpenalized.
    """
    if (s_scale := _kron_sum_abs_max(P_cov, P_tan)) == 0.0:
        return (*np.linalg.eigh(Psi), False)
    b, V = np.linalg.eigh(P_tan) if tan_eig is None else tan_eig
    mu, W, U, c = _whitened_eigh(lambda U: _kron_rotate(Psi, U, V), P_cov, b, s_scale)
    T = V @ (c[:, None] * W).reshape(U.shape[0], V.shape[0], -1)
    return mu, (U @ T.reshape(U.shape[0], -1)).reshape(W.shape), True


def _kron_spectrum(A: np.ndarray, gram_eig: tuple[np.ndarray, np.ndarray], P_cov: np.ndarray, q: float):
    """``_spectrum`` of Psi = A (x) G with P_tan = q I, from its m_j- and m-sized factors: (mu, L, F, penalized).

    S = (P_cov + q I) (x) I.  With alpha, E, U, c = ``_whitened_eigh`` of U^T A U and gamma, F =
    ``gram_eig`` = eigh(G): mu = alpha (x) gamma and T = (U diag(c) E) (x) F = L (x) F.  S = 0: U = I, c = 1.
    """
    gamma, F = gram_eig
    b = np.array([q])
    s_scale = _kron_sum_abs_max(P_cov, b[:, None])
    if s_scale == 0.0:
        alpha, L = np.linalg.eigh(A)
    else:
        alpha, E, U, c = _whitened_eigh(lambda U: U.T @ A @ U, P_cov, b, s_scale)
        L = (U * c) @ E
    return np.kron(alpha, gamma), L, F, s_scale != 0.0


def _kron_apply(A: np.ndarray, B: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (x) B) x for the vec layout (index = row of A * rows of B + row of B), x of shape (p,) or (p, k)."""
    X = x.reshape(A.shape[1], B.shape[1], -1)
    Y = (X[:, :, 0] @ B.T)[:, :, None] if X.shape[2] == 1 else B @ X  # one GEMM for a vector right-hand side
    return (A @ Y.reshape(A.shape[1], -1)).reshape(A.shape[0] * B.shape[0], *x.shape[1:])


def _calibrate(mu: np.ndarray, penalized: bool, df_target: float, tol: float = 1e-4) -> float:
    """The ``df_to_lambda`` scale from the eigenvalues mu of ``_spectrum``."""
    pos = mu[mu > 1e-12 * max(mu.max(), 1e-300)]
    rank = pos.size

    def df(lam: float) -> float:
        return float(np.sum(pos / (pos + lam)))

    if df_target >= rank - tol or not penalized:
        if df_target > rank + tol:
            warnings.warn(f"df target {df_target} exceeds rank {rank}; clamping to the unpenalized fit", stacklevel=3)
        elif df_target < rank - tol:
            warnings.warn(f"df target {df_target} unreachable without a penalty; fitting unpenalized", stacklevel=3)
        return 0.0
    for bound in (30.0, -20.0):  # df above the target at e^30, or below it at e^-20
        if (df(np.exp(bound)) - df_target) * np.sign(bound) > tol:
            warnings.warn(f"df target {df_target} unreachable; clamping at lambda = e^{bound:g}", stacklevel=3)
            return float(np.exp(bound))
    lo, hi = -20.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = df(np.exp(mid))
        if abs(val - df_target) <= tol:
            return float(np.exp(mid))
        lo, hi = (mid, hi) if val > df_target else (lo, mid)
    return float(np.exp(0.5 * (lo + hi)))


def df_to_lambda(Psi: np.ndarray, P_cov: np.ndarray, P_tan: np.ndarray, df_target: float,
                 tol: float = 1e-4) -> float:
    """Calibrate the penalty scale so the base-learner has the requested df.

    One scalar lambda multiplies S = P_cov (x) I + I (x) P_perp (with the
    ridge of ``_spectrum`` on a singular S).  df(lambda) = trace[(Psi +
    lambda S)^{-1} Psi] = sum mu_i / (mu_i + lambda) is solved by bisection
    on log(lambda) in [-20, 30]; unreachable targets are clamped with a
    warning.  S = 0 has no scale: lambda is 0 and any target below the rank
    is unreachable.
    """
    mu, _, penalized = _spectrum(Psi, P_cov, P_tan)
    return _calibrate(mu, penalized, df_target, tol)


class PlsLearner:
    """Penalized least-squares system A = Psi + lambda S, decomposed once and solved many times.

    A learner has one penalty scale ``lam`` and is built by ``unpenalized``, ``calibrated`` or
    ``calibrated_kron``.  With ``_spectrum``'s T = (U (x) V) diag(c) W, A^{-1} = T diag(1 / (mu +
    lambda)) T^T for vector, matrix and complex right-hand sides.  On a singular S the learner solves
    Psi + lambda (S + delta I), delta = 1e-8 max|S|, the system the df calibration sees; S = 0 is
    unpenalized (lambda = 0).  A learner from ``calibrated_kron`` holds T = L (x) F as its two factors.
    Directions with mu + lambda <= 1e-12 max(mu + lambda) are dropped with one warning naming the
    learner (for an unpenalized system, the least-norm pseudo-inverse).
    """

    def __init__(self, mu: np.ndarray, T: np.ndarray, F: np.ndarray | None, lam: float, label: str):
        """Keep the basis T (p x p); with F, T holds the factor L of the basis L (x) F instead."""
        self.lam = lam
        self._T, self._F = T, F
        shifted = mu + lam
        keep = shifted > 1e-12 * shifted.max()
        if not keep.all():
            warnings.warn(f"{label}: singular PLS system, using pseudo-inverse", stacklevel=3)
        self._inv = np.divide(1.0, shifted, out=np.zeros_like(shifted), where=keep)
        self._gain = self._inv * self._inv * (mu + 2.0 * lam)

    @classmethod
    def unpenalized(cls, Psi: np.ndarray, label: str = "PLS system") -> "PlsLearner":
        """The learner of Psi alone, from its eigendecomposition."""
        return cls(*np.linalg.eigh(Psi), None, 0.0, label)

    @classmethod
    def calibrated(cls, Psi: np.ndarray, P_cov: np.ndarray, P_tan: np.ndarray, df_target: float,
                   label: str = "PLS system", tan_eig: tuple[np.ndarray, np.ndarray] | None = None) -> "PlsLearner":
        """The learner at the ``df_to_lambda`` scale, calibrated and factored from one decomposition."""
        mu, T, penalized = _spectrum(Psi, P_cov, P_tan, tan_eig)
        return cls(mu, T, None, _calibrate(mu, penalized, df_target), label)

    @classmethod
    def calibrated_kron(cls, A: np.ndarray, gram_eig: tuple[np.ndarray, np.ndarray], P_cov: np.ndarray, q: float,
                        df_target: float, label: str = "PLS system") -> "PlsLearner":
        """``calibrated`` for Psi = A (x) G and P_tan = q I, from ``gram_eig`` = eigh(G) and two m_j-sized ``eigh``."""
        mu, L, F, penalized = _kron_spectrum(A, gram_eig, P_cov, q)
        return cls(mu, L, F, _calibrate(mu, penalized, df_target), label)

    def coords(self, rhs: np.ndarray) -> np.ndarray:
        """Coordinates z = T^T rhs of a right-hand side."""
        if self._F is None:
            return self._T.T @ rhs
        return _kron_apply(self._T.T, self._F.T, rhs)

    def objective(self, z: np.ndarray) -> float:
        """-2 v^T rhs + v^T Psi v at v = A^{-1} rhs from z = ``coords(rhs)``: -sum z^2 (mu + 2 lam) / (mu + lam)^2."""
        return -float(self._gain @ (z * z))

    def coefs(self, z: np.ndarray) -> np.ndarray:
        """A^{-1} rhs from z = ``coords(rhs)``."""
        v = (self._inv * z.T).T
        return self._T @ v if self._F is None else _kron_apply(self._T, self._F, v)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.coefs(self.coords(rhs))

