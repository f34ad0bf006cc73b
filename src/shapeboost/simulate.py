"""Synthetic shape/form regression datasets with known ground truth.

A built-in smooth closed outline defines the true pole.  The true smooth
effect is the family of 3D view transformations obtained by tilting the
planar outline about its longitudinal axis by an angle z1 in [-60, 60]
degrees under a perspective projection, expanded in the tangent basis; a fixed tangent contrast separates the two groups of a balanced binary
covariate.  Responses are generated by drawing tangent residuals at the pole
(smooth Gaussian fields, or resampled from a residual pool when one is given),
subsampling each curve's grid down to an average size (three guaranteed
points plus Bernoulli draws), parallel transporting the residual to the true
conditional mean and applying the exponential map there.  Unless pre-aligned
output is requested, every curve is then moved to a random similarity frame
(rigid for forms).  ``study_configs`` and ``run_replicate`` run the study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    PoleCoef,
    SplineConfig,
    build_response_basis,
    constraint_matrix,
    nullspace,
    nullspace_transform,
)
from .boost import BoostConfig, boost_fit, estimate_pole, rmse_effect
from .effects import CovariateMap, EffectError, EffectSpec, covariate_design, curve_gram, curve_proj
from .geometry import (
    ALIGN_TOL,
    CurveSample,
    DegenerateAlignment,
    GeometryError,
    GeometryKind,
    center,
    empirical_inner,
    empirical_norm,
    rule_weights,
    trapezoid_weights,
)

__all__ = [
    "TruthSpec",
    "SimConfig",
    "DatasetTruth",
    "builtin_template",
    "tilt_curve",
    "gen_truth",
    "gen_dataset",
    "default_effects",
    "study_configs",
    "run_replicate",
]

BATCH_ANGLES = np.arange(-60.0, 61.0, 15.0)  # 9 equidistant tilt angles
BATCH_SIZE = 2 * BATCH_ANGLES.size
NOISE_LENGTH_SCALE = 0.25  # squared-exponential correlation length, in units of the basis dimension
RESPONSE_BASIS = SplineConfig(degree=3, n_knots=27, cyclic=True, knot_rule="quantile")
COVARIATE_BASIS = SplineConfig(degree=3, n_knots=4, cyclic=False, knot_rule="equidistant")
TEMPLATE_POINTS = 123  # grid size of the built-in outline
CAMERA_DISTANCE = 9.0  # perspective camera distance of the tilt, in outline half-widths
STRETCH = 1.1  # width/height factor of the binary-group contrast


def builtin_template() -> tuple[np.ndarray, np.ndarray]:
    """Smooth asymmetric closed outline on a unit-speed grid in [0, 1).

    Returns (grid, values).  The outline is tall (longitudinal axis = vertical)
    so the tilt family has a well-defined rotation axis.
    """
    dense = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    x = 0.42 * np.cos(dense) + 0.06 * np.cos(2 * dense)
    y = 0.95 * np.sin(dense) + 0.10 * np.sin(2 * dense) + 0.05 * np.cos(3 * dense)
    z = x + 1j * y
    seg = np.abs(np.diff(np.concatenate([z, z[:1]])))
    arc = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
    arc /= arc[-1] + seg[-1]
    grid = np.arange(TEMPLATE_POINTS) / TEMPLATE_POINTS
    values = np.interp(grid, arc, z.real) + 1j * np.interp(grid, arc, z.imag)
    return grid, values


def tilt_curve(values: np.ndarray, angle_deg: float) -> np.ndarray:
    """Perspective view of the outline tilted about its vertical axis.

    Rotates the plane about the longitudinal (vertical) axis through the
    centroid by the given angle and projects back with a finite camera
    distance, so tilting towards and away from the viewer differ.
    """
    v = np.asarray(values, dtype=complex)
    cx = v.real.mean()
    cy = v.imag.mean()
    x = v.real - cx
    y = v.imag - cy
    om = np.deg2rad(angle_deg)
    depth = x * np.sin(om)
    cam = CAMERA_DISTANCE * max(np.abs(x).max(), 1e-12)
    scale = cam / (cam - depth)
    return (cx + x * np.cos(om) * scale) + 1j * (cy + y * scale)


def _stretch_curve(values: np.ndarray) -> np.ndarray:
    """Width/height trade-off used as the fixed binary-group contrast."""
    v = np.asarray(values, dtype=complex)
    cx, cy = v.real.mean(), v.imag.mean()
    return (cx + STRETCH * (v.real - cx)) + 1j * (cy + (v.imag - cy) / STRETCH)


@dataclass
class TruthSpec:
    """Known data-generating model: pole, tangent effect fields, batch design.

    Effect fields are stored as real (2*m0, m_j) matrices of response-basis
    coefficients (top half: real part, bottom half: imaginary part), which
    keeps them independent of any particular tangent transform.
    """

    pole: PoleCoef
    effect_fields: dict[str, np.ndarray]
    effect_maps: dict[str, CovariateMap]
    template_grid: np.ndarray
    tilt_projection_residual: float = 0.0


@dataclass
class SimConfig:
    """Configuration of one synthetic dataset."""

    n: int = 54
    k_bar: float = 40.0
    kind: GeometryKind | str = GeometryKind.FORM
    target_nsr: float = 1.05
    pre_aligned: bool = False
    weight_rule: str = "trapezoid"
    seed: int = 0

    def __post_init__(self):
        self.kind = GeometryKind.parse(self.kind)
        if self.n % BATCH_SIZE != 0:
            raise EffectError(f"sample size must be a multiple of {BATCH_SIZE}, got {self.n}")
        if not (np.isfinite(self.k_bar) and self.k_bar >= 3):
            raise EffectError(f"average grid size must be finite and at least 3, got {self.k_bar}")
        if not (np.isfinite(self.target_nsr) and self.target_nsr >= 0):
            raise EffectError(f"noise-to-signal ratio must be finite and nonnegative, got {self.target_nsr}")
        if self.weight_rule not in ("trapezoid", "uniform"):
            raise EffectError("simulation supports trapezoid or uniform weights")


@dataclass
class DatasetTruth:
    """Per-curve evaluations of the realized true model, for error metrics."""

    effect_evals: dict[str, list[np.ndarray]]
    total_evals: list[np.ndarray]
    pole_evals: list[np.ndarray]
    fields: dict[str, np.ndarray]
    effect_maps: dict[str, CovariateMap]
    nsr: float


def _form_log(p_evals: np.ndarray, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Log_[p]([y]) of forms by scalar inner products: the aligned centered curve minus the centered pole.

    Kept apart from ``geometry.log_map`` on purpose.  ``gen_dataset`` is
    chaotic on very sparse grids (scaling the pole by 1 + 1e-15 moves the
    realized noise-to-signal ratio of a k = 3 sample by about 0.3 %), so the
    truth must keep this exact floating-point arithmetic while recorded
    results pin the generated datasets bit for bit.
    """
    p = center(p_evals, w)
    y_c = center(values, w)
    ip = empirical_inner(y_c, p, w)
    if abs(ip) < ALIGN_TOL * empirical_norm(y_c, w) * empirical_norm(p, w):
        raise DegenerateAlignment("template outline: rotation alignment undefined")
    return ip / abs(ip) * y_c - p


def gen_truth() -> TruthSpec:
    """Build the ground-truth model from the built-in outline.

    The pole is the spline projection of the outline; the smooth effect
    expands the tilt family into the tangent basis at the pole (fit over a
    fine angle grid, centered over the batch design); the binary effect is a
    fixed tangent contrast from a width-stretch of the outline.
    """
    grid, values = builtin_template()
    kind = GeometryKind.FORM  # fields are built in form mode; shape reuses them after per-curve projection

    basis = build_response_basis(RESPONSE_BASIS, grid)
    w = trapezoid_weights(grid)
    B = basis.design(grid)
    coef, *_ = np.linalg.lstsq(np.sqrt(w)[:, None] * B, np.sqrt(w) * values, rcond=None)
    proj_residual = empirical_norm(values - B @ coef, w) / empirical_norm(center(values, w), w)

    def tangent_machinery(pole_coef: np.ndarray):
        pole_ = PoleCoef(coef=pole_coef, basis=basis)
        probe = CurveSample("template", grid, B @ pole_coef, w)
        transform_ = nullspace_transform(constraint_matrix([probe], pole_, kind))
        D_ = B @ transform_.complex_columns
        G_ = curve_gram(D_, w)
        p_evals_ = B @ pole_coef

        def tangent_coef(curve_vals: np.ndarray) -> np.ndarray:
            CurveSample("v", grid, curve_vals, w)  # validates the outline
            return np.linalg.solve(G_, curve_proj(D_, w, _form_log(p_evals_, curve_vals, w)))

        return pole_, transform_, tangent_coef

    # the design mean of the tilt family belongs to the pole, not to the
    # (sum-to-zero) effect: shift the pole by the mean deformation and rebuild
    _, transform0, tangent_coef0 = tangent_machinery(coef)
    batch_mean = np.mean(
        np.column_stack([tangent_coef0(tilt_curve(values, a)) for a in BATCH_ANGLES]), axis=1
    )
    pole_coef = coef + transform0.field_coef(batch_mean)
    pole, transform, tangent_coef = tangent_machinery(pole_coef)

    angles = np.linspace(-60.0, 60.0, 41)
    tilt_coefs = np.column_stack([tangent_coef(tilt_curve(values, a)) for a in angles])

    batch_table = {
        "group": np.array([str(g) for g in np.repeat([0, 1], BATCH_ANGLES.size)]),
        "z1": np.tile(BATCH_ANGLES, 2),
    }
    smooth_spec = EffectSpec(
        name="tilt",
        kind="smooth",
        covariates=("z1",),
        covariate_basis=COVARIATE_BASIS,
        penalty_covariate="second_diff",
        centering="sum_to_zero",
    )
    _, tilt_map = covariate_design(smooth_spec, batch_table, BATCH_SIZE)
    Bz = tilt_map.design({"z1": angles}, angles.size)
    # keep the true smooth effect orthogonal to the linear nuisance learner:
    # constrain sum_z z * f(z) = 0 over the batch design
    Bz_batch = tilt_map.design(batch_table, BATCH_SIZE)
    q = Bz_batch.T @ (batch_table["z1"] - batch_table["z1"].mean())
    N, _ = nullspace(q[None, :])
    theta_tilt = tilt_coefs @ Bz @ N @ np.linalg.inv(N.T @ Bz.T @ Bz @ N) @ N.T

    cat_spec = EffectSpec(name="group", kind="categorical", covariates=("group",), centering="sum_to_zero")
    _, cat_map = covariate_design(cat_spec, batch_table, BATCH_SIZE)
    contrast = tangent_coef(_stretch_curve(values))
    theta_cat = (0.5 * contrast)[:, None]

    fields = {
        "group": transform.Z @ theta_cat,
        "tilt": transform.Z @ theta_tilt,
    }
    return TruthSpec(
        pole=pole,
        effect_fields=fields,
        effect_maps={"group": cat_map, "tilt": tilt_map},
        template_grid=grid,
        tilt_projection_residual=float(proj_residual),
    )


def _smooth_coef_chol(m0: int, cyclic: bool) -> np.ndarray:
    """Factor L with L L^T = squared-exponential covariance over coefficient index."""
    idx = np.arange(m0)
    diff = np.abs(idx[:, None] - idx[None, :])
    if cyclic:
        diff = np.minimum(diff, m0 - diff)
    scale = max(NOISE_LENGTH_SCALE * m0, 1e-6)
    K = np.exp(-((diff / scale) ** 2))
    # squared-exponential covariances are numerically rank deficient
    evals, evecs = np.linalg.eigh(K)
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def _subsample_grid(rng: np.random.Generator, K: int, k_bar: float) -> np.ndarray:
    """Three guaranteed points plus Bernoulli((k_bar-3)/(K-3)) draws, sorted indices."""
    forced = rng.choice(K, size=3, replace=False)
    p = min(max((k_bar - 3.0) / max(K - 3.0, 1.0), 0.0), 1.0)
    mask = rng.uniform(size=K) < p
    mask[forced] = True
    return np.flatnonzero(mask)


def default_effects(df: float = 4.0, nuisance: bool = True) -> list[EffectSpec]:
    """Fit-side effect list matching the simulation design, plus the three nuisance learners."""
    effects = [
        EffectSpec(name="group", kind="categorical", covariates=("group",), df_target=df),
        EffectSpec(
            name="tilt",
            kind="smooth",
            covariates=("z1",),
            covariate_basis=COVARIATE_BASIS,
            df_target=df,
            penalty_covariate="second_diff",
        ),
    ]
    if nuisance:
        effects += [
            EffectSpec(name="const0", kind="constant", covariates=(), df_target=df, centering="none"),
            EffectSpec(name="lin_z1", kind="linear", covariates=("z1",), df_target=df),
            EffectSpec(
                name="smooth_z2",
                kind="smooth",
                covariates=("z2",),
                covariate_basis=COVARIATE_BASIS,
                df_target=df,
                penalty_covariate="second_diff",
            ),
        ]
    return effects


def gen_dataset(
    truth: TruthSpec,
    cfg: SimConfig,
    pool: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[list[CurveSample], dict, DatasetTruth]:
    """Generate one synthetic dataset from the ground truth.

    Returns the curve sample, the covariate table and the realized truth
    (per-curve effect evaluations, after projecting the truth fields onto the
    tangent space implied by this dataset's grids, so the realized truth is
    exactly representable by a fit on the same sample).  Residuals are smooth
    Gaussian fields, or resampled (grid and values) from ``pool`` when one is
    given.
    """
    kind = GeometryKind.parse(cfg.kind)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    basis = truth.pole.basis
    m0 = basis.dim

    covariates = {
        "group": np.tile(np.array([str(g) for g in np.repeat([0, 1], BATCH_ANGLES.size)]), n // BATCH_SIZE),
        "z1": np.tile(np.tile(BATCH_ANGLES, 2), n // BATCH_SIZE),
        "z2": rng.uniform(-60.0, 60.0, size=n),
    }

    if pool is not None:
        if not pool:
            raise EffectError("the residual pool is empty")
        pool_ids = rng.integers(0, len(pool), size=n)

    K = truth.template_grid.size
    grids = []
    designs = []
    weights = []
    for i in range(n):
        if pool is not None:
            pg = np.asarray(pool[pool_ids[i]][0], dtype=float)
            sel = _subsample_grid(rng, pg.size, cfg.k_bar)
            grid = pg[sel]
        else:
            sel = _subsample_grid(rng, K, cfg.k_bar)
            grid = truth.template_grid[sel]
        grids.append((sel, grid))
        w = rule_weights(cfg.weight_rule, grid)
        weights.append(w)
        designs.append(basis.design(grid))

    # tangent transform implied by this sample's grids; the truth fields are
    # projected onto it so a fit on the same sample can represent them exactly
    pole_probe = CurveSample.checked([f"probe{i}" for i in range(n)], [g for _, g in grids],
                                     [B @ truth.pole.coef for B in designs], weights)
    C = constraint_matrix(pole_probe, truth.pole, kind, designs=designs)
    Zs = nullspace_transform(C).Z
    fields_used = {name: Zs @ (Zs.T @ V) for name, V in truth.effect_fields.items()}
    fields_c = {name: V[:m0] + 1j * V[m0:] for name, V in fields_used.items()}

    effect_evals: dict[str, list[np.ndarray]] = {name: [] for name in fields_used}
    total_evals: list[np.ndarray] = []
    pole_evals_list: list[np.ndarray] = []
    mu_reps: list[np.ndarray] = []
    pred_sq = 0.0
    for i in range(n):
        B, w = designs[i], weights[i]
        p_c = center(B @ truth.pole.coef, w)
        pn = empirical_norm(p_c, w)
        p_rep = p_c / pn if kind is GeometryKind.SHAPE else p_c
        pole_evals_list.append(p_rep)
        x = {name: covariates[name][i] for name in ("group", "z1")}
        total = np.zeros(B.shape[0], dtype=complex)
        for name, fc in fields_c.items():
            row = truth.effect_maps[name].row(x)
            ev = B @ (fc @ row)
            effect_evals[name].append(ev)
            total += ev
        total_evals.append(total)
        pred_sq += empirical_inner(total, total, w).real
        # conditional mean representative
        if kind is GeometryKind.FORM:
            mu = center(p_rep + total, w)
        else:
            nh = empirical_norm(total, w)
            mu = np.cos(nh) * p_rep + (np.sin(nh) / nh if nh > 1e-12 else 1.0) * total
            mu = center(mu, w)
            mu = mu / empirical_norm(mu, w)
        mu_reps.append(mu)

    # raw tangent residuals at the pole
    raw_eps: list[np.ndarray] = []
    if pool is None:
        chol = _smooth_coef_chol(m0, basis.cfg.cyclic)
        for i in range(n):
            coef = chol @ rng.standard_normal(m0) + 1j * (chol @ rng.standard_normal(m0))
            raw_eps.append(designs[i] @ coef)
    else:
        for i in range(n):
            pv = np.asarray(pool[pool_ids[i]][1], dtype=complex)
            raw_eps.append(pv[grids[i][0]])

    # tangent-project per curve, then remove components along the truth effect
    # directions, mimicking residual resampling where model residuals
    # are orthogonal to the fitted effect directions by least squares
    signal_fields = np.hstack([fields_c[name] for name in fields_c])
    eps_pole = []
    noise_sq = 0.0
    for i in range(n):
        w = weights[i]
        p_rep = pole_evals_list[i]
        v = center(raw_eps[i], w)
        c = empirical_inner(p_rep, v, w) / empirical_inner(p_rep, p_rep, w).real
        if kind is GeometryKind.SHAPE:
            v = v - c * p_rep
        else:
            v = v - 1j * c.imag * p_rep
        # modified Gram-Schmidt on the tangent-projected signal directions;
        # deflating against non-tangent vectors would push the noise out of
        # the tangent space and break the transport isometry
        S = designs[i] @ signal_fields
        qs: list[np.ndarray] = []
        for col in range(S.shape[1]):
            s_col = center(S[:, col], w)
            cs = empirical_inner(p_rep, s_col, w) / empirical_inner(p_rep, p_rep, w).real
            if kind is GeometryKind.SHAPE:
                s_col = s_col - cs * p_rep
            else:
                s_col = s_col - 1j * cs.imag * p_rep
            for q in qs:
                s_col = s_col - empirical_inner(q, s_col, w) * q
            nn = empirical_norm(s_col, w)
            if nn > 1e-10:
                qs.append(s_col / nn)
        for q in qs:
            v = v - empirical_inner(q, v, w) * q
        eps_pole.append(v)
        noise_sq += empirical_inner(v, v, w).real

    if cfg.target_nsr > 0 and noise_sq > 0:
        s = np.sqrt(cfg.target_nsr * pred_sq / noise_sq)
    else:
        s = 0.0
    realized = 0.0

    values_raw: list[np.ndarray] = []
    for i in range(n):
        w = weights[i]
        p_rep = pole_evals_list[i]
        mu = mu_reps[i]
        eps = s * eps_pole[i]
        # transport pole -> mean; the exponential output is aligned with the pole
        a = empirical_inner(p_rep, mu, w).real / (
            empirical_norm(p_rep, w) * empirical_norm(mu, w)
        )
        denom = 1.0 + a
        if kind is GeometryKind.SHAPE:
            cmu = empirical_inner(mu, eps, w)
            eps_mu = eps - cmu * (p_rep + mu) / denom
            ne = empirical_norm(eps_mu, w)
            if ne >= np.pi - 1e-6:
                raise GeometryError("simulated residual beyond the shape cut locus; lower the noise target")
            y = np.cos(ne) * mu + (np.sin(ne) / ne if ne > 1e-12 else 1.0) * eps_mu
        else:
            p_hat = p_rep / empirical_norm(p_rep, w)
            mu_hat = mu / empirical_norm(mu, w)
            cim = empirical_inner(mu_hat, eps, w).imag
            eps_mu = eps - 1j * cim * (p_hat + mu_hat) / denom
            y = mu + eps_mu
        realized += empirical_inner(eps_mu, eps_mu, w).real
        values_raw.append(y)

    nsr = realized / pred_sq if pred_sq > 0 else 0.0

    if not cfg.pre_aligned:
        all_re = np.concatenate([v.real for v in values_raw])
        all_im = np.concatenate([v.imag for v in values_raw])
        s1, s2 = float(all_re.std()), float(all_im.std())
        for i in range(n):
            u = np.exp(1j * rng.normal(0.0, np.pi / 20.0))
            gamma = s1 * rng.standard_normal() + 1j * s2 * rng.standard_normal()
            lam = rng.gamma(100.0, 0.01) if kind is GeometryKind.SHAPE else 1.0
            values_raw[i] = lam * u * values_raw[i] + gamma

    sample = CurveSample.checked([f"sim{i:04d}" for i in range(n)], [g for _, g in grids], values_raw, weights)
    truth_out = DatasetTruth(
        effect_evals=effect_evals,
        total_evals=total_evals,
        pole_evals=pole_evals_list,
        fields=fields_used,
        effect_maps=truth.effect_maps,
        nsr=float(nsr),
    )
    return sample, covariates, truth_out


def study_configs(reps: int, k_bar: float = 40.0):
    """The simulation study's datasets, cell by cell.

    Forms at noise-to-signal 1.05, then shapes at 0.65, each at n = 54 and
    then 162.  Replicate ``rep`` of a cell has seed
    1000 * (n + (kind == "shape")) + rep, so no two cells share a seed.
    """
    for kind, nsr in (("form", 1.05), ("shape", 0.65)):
        for n in (54, 162):
            for rep in range(reps):
                seed = 1000 * (n + (kind == "shape")) + rep
                yield SimConfig(n=n, k_bar=k_bar, kind=kind, target_nsr=nsr, seed=seed)


def run_replicate(
    truth: TruthSpec, cfg: SimConfig, eta: float = 0.25, iterations: int = 250, df: float = 4.0
) -> dict[str, float]:
    """One study replicate: simulate, estimate the pole, fit all five learners and score the fit.

    Returns the realized noise-to-signal ratio ``nsr``, ``rmse_<effect>`` for
    every learner (relative to the total effect; the nuisance learners are
    those with no true effect), ``nuisance_share`` (the share of iterations
    that selected a nuisance learner) and the empirical risk before the first and after the
    last iteration (``risk_first``, ``risk_last``).
    """
    sample, cov, dtruth = gen_dataset(truth, cfg)
    effects = default_effects(df=df)
    bc = BoostConfig(
        effects=effects,
        step_length=eta,
        max_iterations=iterations,
        response_basis=truth.pole.basis.cfg,
        response_penalty="ridge",
        rng_seed=cfg.seed,
    )
    pole = estimate_pole(sample, cfg.kind, truth.pole.basis, bc)
    model = boost_fit(sample, cov, bc, pole, cfg.kind)
    out = {"nsr": dtruth.nsr}
    zero = [np.zeros(c.k, dtype=complex) for c in sample]
    for e in effects:
        evals = dtruth.effect_evals.get(e.name, zero)
        out[f"rmse_{e.name}"] = rmse_effect(model, sample, cov, e.name, evals, dtruth.total_evals, dtruth.pole_evals)
    nuisance = [j for j, e in enumerate(effects) if e.name not in dtruth.effect_evals]
    out["nuisance_share"] = float(np.mean(np.isin(model.selection_trace, nuisance)))
    out["risk_first"] = float(model.risk_trace[0])
    out["risk_last"] = float(model.risk_trace[model.m_stop])
    return out
