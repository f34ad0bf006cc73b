"""Component-wise Riemannian L2-boosting for shape/form responses.

The additive predictor lives in the tangent space at a pole.  Each boosting
iteration maps every curve to its conditional mean candidate through the
exponential map, takes the logarithm of the observation there (the negative
gradient of the squared-geodesic loss), parallel transports it back to the
pole, refits every base-learner to these transported residuals by penalized
least squares and commits the best-fitting learner scaled by the step length.

The pole itself is estimated by the same machinery: a preliminary pole is the
penalized spline fit to the pointwise mean of the sample aligned to the first
curve, refined by intercept-only boosting (``estimate_pole`` names its
stopping rules), and the final fit rebuilds the tangent transform at the
refined pole.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._blas import serial_blas
from .basis import (
    BSplineBasis,
    PenaltyBlock,
    PoleCoef,
    SplineConfig,
    TangentTransform,
    build_response_basis,
    center_pole,
    constraint_mean,
    normal_projections,
    nullspace_transform,
    packed_constraint_matrix,
    sample_design,
)
from .effects import (
    CovariateMap,
    EffectError,
    EffectSpec,
    PlsLearner,
    assemble_psi_matrix,
    assemble_psi_vector,
    covariate_design,
    unvec,
)
from .geometry import (
    WEIGHT_RULES,
    CurveSample,
    DegenerateAlignment,
    DesignBand,
    GeometryError,
    GeometryKind,
    PackedSample,
    TangentEvals,
    rule_weights,
)

__all__ = [
    "BoostConfig",
    "FittedEffect",
    "FittedModel",
    "ResidualSet",
    "CvResult",
    "FitDiverged",
    "ModelError",
    "estimate_pole",
    "boost_fit",
    "cv_early_stop",
    "predict_mean",
    "predict_means",
    "empirical_risk",
    "model_sample",
    "rmse_effect",
    "transported_residuals",
]

log = logging.getLogger("shapeboost")

POLE_REL_TOL = 1e-8
ORTHONORMAL_TOL = 1e-8
PREDICT_BLOCK_POINTS = 4096


class FitDiverged(RuntimeError):
    """Numerical failure during fitting (NaN risk or cut-locus overshoot)."""


class ModelError(EffectError):
    """Fields of a fitted model that disagree; ``key`` names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass
class BoostConfig:
    """Hyper-parameters of one model fit."""

    effects: list[EffectSpec]
    step_length: float = 0.1
    max_iterations: int = 100
    cv_folds: int = 10
    rng_seed: int = 0
    response_basis: SplineConfig = field(default_factory=lambda: SplineConfig(degree=3, n_knots=20, cyclic=True))
    response_penalty: str = "second_diff"  # P_0 for the tangent direction
    weight_rule: str = "trapezoid"  # how the curves' weights were made; see geometry.rule_weights
    pole_max_iterations: int = 100

    def __post_init__(self):
        if self.weight_rule not in WEIGHT_RULES:
            raise EffectError(f"unknown weight rule {self.weight_rule!r}")
        if not (0.0 < self.step_length <= 1.0):
            raise EffectError(f"step length must be in (0, 1], got {self.step_length}")
        if self.cv_folds < 2:
            raise EffectError("cv_folds must be >= 2")
        if self.max_iterations < 0:
            raise EffectError("max_iterations must be nonnegative")
        names = [e.name for e in self.effects]
        if len(set(names)) != len(names):
            raise EffectError("effect names must be unique")
        seen: set[str] = set()
        for e in self.effects:
            for parent in e.parents:
                if parent not in seen:
                    raise EffectError(f"effect {e.name!r}: parent {parent!r} must be listed earlier")
            seen.add(e.name)

    @property
    def coef_mode(self) -> bool:
        """Coefficient-level data: curves are basis coefficients weighted by the basis Gram matrix."""
        return self.weight_rule == "gram"


@dataclass
class FittedEffect:
    cmap: CovariateMap
    theta: np.ndarray  # (m, m_j)
    lam: float = 0.0

    @property
    def spec(self) -> EffectSpec:
        """The effect's spec, held once by its covariate map."""
        return self.cmap.spec


@dataclass
class FittedModel:
    """Result of a boosting fit; self-contained for prediction."""

    kind: GeometryKind
    pole: PoleCoef
    transform: TangentTransform
    effects: list[FittedEffect]
    risk_trace: np.ndarray
    m_stop: int
    selection_trace: np.ndarray
    response_penalty: str = "second_diff"
    weight_rule: str = "trapezoid"
    rng_seed: int = 0

    def __post_init__(self):
        if self.weight_rule not in WEIGHT_RULES:
            raise ModelError("weight_rule", f"unknown weight rule {self.weight_rule!r}")
        Z = self.transform.Z
        off = float(np.abs(Z.T @ Z - np.eye(Z.shape[1])).max(initial=0.0))
        if not off <= ORTHONORMAL_TOL:
            raise ModelError("transform", f"columns are not orthonormal: max |Z^T Z - I| = {off:.3g}")
        sel, iterations = np.asarray(self.selection_trace), len(self.risk_trace) - 1
        if sel.shape != (iterations,):
            raise ModelError("selection_trace", f"shape {sel.shape}, expected ({iterations},) from the risk trace")
        unknown = sel[(sel < 0) | (sel >= len(self.effects))]
        if unknown.size:
            raise ModelError("selection_trace", f"index {unknown[0]} names no effect ({len(self.effects)} effects)")
        if not 0 <= self.m_stop <= iterations:
            raise ModelError("m_stop", f"{self.m_stop} is not an iteration of the risk trace (0 to {iterations})")

    @property
    def basis(self) -> BSplineBasis:
        return self.pole.basis

    @property
    def coef_mode(self) -> bool:
        return self.weight_rule == "gram"

    def predictor_coefs(self, covariates: dict, n: int) -> np.ndarray:
        """Tangent coefficients (n, m) of the additive predictor for every row of a covariate table."""
        designs = [eff.cmap.design(covariates, n) for eff in self.effects]
        return _additive_coefs(designs, [eff.theta for eff in self.effects], n, self.transform.m)


def _additive_coefs(designs: list[np.ndarray], thetas: list[np.ndarray], n: int, m: int) -> np.ndarray:
    """Tangent coefficients (n, m) of the additive predictor, sum_j X_j Theta_j^T."""
    out = np.zeros((n, m))
    for design, theta in zip(designs, thetas):
        out += design @ theta.T
    return out


@dataclass
class ResidualSet:
    """Transported residuals of a sample at the pole, one TangentEvals per curve."""

    residuals: list[TangentEvals]


@dataclass
class CvResult:
    m_stop: int
    cv_risk: np.ndarray  # fold-averaged held-out risk, length iterations + 1
    fold_risks: np.ndarray  # (folds, iterations + 1)
    fold_assignment: np.ndarray  # fold index per curve


# ---------------------------------------------------------------------------
# a packed sample at one pole


class _PoleSample:
    """A packed sample seen from one pole: pole representatives and tangent directions.

    Tangent coefficients c (m,) map to basis coefficients Z_c c and through
    the band of the stacked response design to evaluations, so the per-curve
    tangent designs D_i = B_i Z_c are never formed.  Without a transform, the
    tangent space is the null space of the constraints at the pole, built in
    packed passes on first use.  The pole representative and its norms are
    computed once, on first use.  Exp, Log and transport act on evaluations
    h (``predictor``), so a caller may build h from per-curve basis
    coefficients of its own (``PackedSample.field``).
    """

    def __init__(self, packed: PackedSample, pole: PoleCoef, kind: GeometryKind,
                 transform: TangentTransform | None = None):
        self.packed = packed
        self.pole = pole
        self.kind = kind
        if transform is not None:
            self.transform = transform  # an instance attribute takes the place of the cached property

    @classmethod
    def of(cls, sample: list[CurveSample], pole: PoleCoef, kind: GeometryKind, coef_mode: bool, transform=None):
        return cls(PackedSample.of(sample, sample_design(pole.basis, sample, coef_mode)), pole, kind, transform)

    @cached_property
    def transform(self) -> TangentTransform:
        return nullspace_transform(packed_constraint_matrix(self.packed, self.pole, self.kind))

    @cached_property
    def p_rep(self) -> np.ndarray:
        return self.packed.pole_rep(self.packed.band @ self.pole.coef, self.kind)

    @cached_property
    def p_norm(self) -> np.ndarray:
        return self.packed.norm(self.p_rep)

    def take(self, idx: np.ndarray) -> "_PoleSample":
        """The curves ``idx`` (repeats allowed) at the same pole, gathered with their pole representatives."""
        sub = _PoleSample(self.packed.take(idx), self.pole, self.kind)
        sub.p_rep, sub.p_norm = self.p_rep[self.packed.rows(idx)], self.p_norm[idx]
        return sub

    def predictor(self, coefs: np.ndarray) -> np.ndarray:
        """Packed evaluations D_i c_i of per-curve tangent coefficients (n, m)."""
        return self.packed.field(self.transform.curve_coefs(coefs))

    def means(self, h: np.ndarray) -> np.ndarray:
        """Centered representatives of Exp_[p](h_i) (packed)."""
        return self.packed.exp(self.p_rep, h, self.kind, error=FitDiverged)

    def residuals(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transported residuals Transp(Log_[mu_i] [y_i]) at the pole, mu_i = Exp_[p](h_i), and distances d_i."""
        mu = self.means(h)
        mn = self.packed.norm(mu)  # shared by the Log's alignment and the transport
        eps, d = self.packed.log(mu, self.kind, what="alignment to the current mean is degenerate", base_norm=mn)
        eps = self.packed.transport(mu, self.p_rep, eps, self.kind, what="antipodal transport in residual step",
                                    norms=(mn, self.p_norm))
        return eps, d

    def distances(self, h: np.ndarray) -> np.ndarray:
        """Geodesic distances d_i between the observations and Exp_[p](h_i)."""
        return self.packed.log(self.means(h), self.kind, what="degenerate alignment in risk evaluation")[1]

    def project(self, eps: np.ndarray) -> np.ndarray:
        """Projections Re(D_i^H W_i eps_i) onto the tangent directions, (n, m)."""
        return self.transform.coords(self.packed.project(eps))

    def residual_pass(self, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Projected transported residuals (n, m) and geodesic distances (n,) at tangent coefficients (n, m)."""
        eps, d = self.residuals(self.predictor(coefs))
        return self.project(eps), d

    def grams(self) -> np.ndarray:
        """Tangent Gram stack Re(D_i^H W_i D_i), (n, m, m)."""
        return self.transform.gram(self.packed.design_grams())


# tangent penalties q I: ZᵀZ = I for the orthonormal transform ("ridge") and zero ("none")
SCALAR_TANGENT_PENALTIES = {"ridge": 1.0, "none": 0.0}


def _shared_gram(grams: np.ndarray) -> np.ndarray | None:
    """The tangent Gram that every curve of the stack has, bit for bit, or None."""
    return grams[0] if (grams == grams[0]).all() else None


class _FitContext:
    """Base-learners of one boosting run: covariate designs and decomposed PLS learners at one tangent transform.

    ``grams`` is the curves' tangent Gram stack.  When every curve has the
    same tangent Gram G (coefficient mode, or one grid and weights shared by
    all curves) and a learner's tangent penalty is q I, its Psi is
    (X^T X) (x) G and it is built from eigh(G), computed once, and two
    m_j-sized decompositions (``PlsLearner.calibrated_kron``).  Every other
    learner decomposes its assembled Psi, with eigh(P_tan) computed once per
    tangent penalty.
    """

    def __init__(self, transform: TangentTransform, basis: BSplineBasis, grams: np.ndarray, covariates: dict,
                 config: BoostConfig):
        self.transform = transform
        self.n = grams.shape[0]
        self.m = transform.m
        self.cov_designs: list[np.ndarray] = []
        self.cmaps: list[CovariateMap] = []
        self.learners: list[PlsLearner] = []
        shared = _shared_gram(grams)
        gram_eig = None
        p_tan: dict[str, tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]] = {}
        parent_designs: dict[str, np.ndarray] = {}
        for spec in config.effects:
            design, cmap = covariate_design(spec, covariates, self.n, parent_designs)
            parent_designs[spec.name] = design
            tan_kind = config.response_penalty if spec.penalty_tangent == "inherit" else spec.penalty_tangent
            label = f"effect {spec.name!r}"
            if shared is not None and tan_kind in SCALAR_TANGENT_PENALTIES:
                if gram_eig is None:
                    gram_eig = np.linalg.eigh(shared)
                learner = PlsLearner.calibrated_kron(design.T @ design, gram_eig, cmap.penalty,
                                                     SCALAR_TANGENT_PENALTIES[tan_kind], spec.df_target, label)
            else:
                if tan_kind not in p_tan:
                    P = PenaltyBlock.build(basis, transform, tan_kind).P_perp
                    p_tan[tan_kind] = P, np.linalg.eigh(P)
                P, eig = p_tan[tan_kind]
                learner = PlsLearner.calibrated(assemble_psi_matrix(design, grams), cmap.penalty, P,
                                                spec.df_target, label, eig)
            self.cov_designs.append(design)
            self.cmaps.append(cmap)
            self.learners.append(learner)

    @classmethod
    def of(cls, ps: _PoleSample, covariates: dict, config: BoostConfig) -> "_FitContext":
        """The learners of a pole sample's curves, at its tangent transform."""
        return cls(ps.transform, ps.pole.basis, ps.grams(), covariates, config)

    def zero_thetas(self) -> list[np.ndarray]:
        """Coefficients (m, m_j) of every learner at the bare pole."""
        return [np.zeros((self.m, cm.m_j)) for cm in self.cmaps]

    def predictor_coefs(self, thetas: list[np.ndarray]) -> np.ndarray:
        """Per-curve tangent coefficients of the current additive predictor, (n, m)."""
        return _additive_coefs(self.cov_designs, thetas, self.n, self.m)

    def step(self, thetas: list[np.ndarray], projs: np.ndarray, step_length: float) -> int:
        """One boosting update from projected residuals (n, m): refit every learner, add step_length times the
        best fit to its coefficients (a new array in ``thetas``) and return its index."""
        zs = [lr.coords(assemble_psi_vector(design, projs)) for lr, design in zip(self.learners, self.cov_designs)]
        # SSE_j = const + objective_j with const shared across learners; argmin takes the first of ties
        best_j = int(np.argmin([lr.objective(z) for lr, z in zip(self.learners, zs)]))
        best_theta = unvec(self.learners[best_j].coefs(zs[best_j]), self.m, self.cmaps[best_j].m_j)
        thetas[best_j] = thetas[best_j] + step_length * best_theta
        return best_j

    def boost(self, ps: _PoleSample, config: BoostConfig):
        """Boosting of the curves of ``ps`` from zero coefficients: yields (thetas, risk, selected learner) at the
        bare pole and per iteration.

        The bare pole's selected learner is None; ``thetas`` is one list, updated in place between yields.
        """
        thetas = self.zero_thetas()
        projs, dists = ps.residual_pass(self.predictor_coefs(thetas))
        yield thetas, float(np.mean(dists**2)), None
        for it in range(config.max_iterations):
            best_j = self.step(thetas, projs, config.step_length)
            projs, dists = ps.residual_pass(self.predictor_coefs(thetas))
            yield thetas, _training_risk(dists, it + 1), best_j


def _training_risk(dists: np.ndarray, iteration: int) -> float:
    """Mean squared geodesic distance of a training sample after an update; a non-finite risk raises."""
    risk = float(np.mean(dists**2))
    if not np.isfinite(risk):
        raise FitDiverged(f"risk became non-finite at iteration {iteration}")
    return risk


def _penalized_spline_fit(packed: PackedSample, design_grams: np.ndarray, targets: np.ndarray,
                          selected: np.ndarray, basis: BSplineBasis, lam: float = 1e-6) -> np.ndarray:
    """Weighted penalized LS fit of the packed targets on the selected curves, complex coefficients."""
    A = design_grams[selected].sum(axis=0) + lam * basis.penalty("second_diff")
    return PlsLearner.unpenalized(A, "preliminary pole").solve(packed.project(targets)[selected].sum(axis=0))


@serial_blas
def estimate_pole(
    sample: list[CurveSample],
    kind: GeometryKind,
    basis: SplineConfig | BSplineBasis,
    config: BoostConfig,
) -> PoleCoef:
    """Overall mean (Riemannian center of mass) as basis coefficients.

    A preliminary pole is the penalized spline fit to the pooled sample
    aligned to (a smooth of) the first curve.  Intercept-only boosting of a
    constant tangent effect then refines it: at each pole, intercept steps
    run until the mean transported residual norm stops decreasing (relative
    decrease at most ``POLE_REL_TOL``), and the result Exp_p(h0) is folded
    back into basis coefficients using product-space norms.  The refinement
    returns the current pole when its first-order condition is at most
    1e-10, when the last fold's step was below 1e-14, when the condition
    fell by less than half over the last fold, or when the budget of
    ``config.pole_max_iterations`` intercept steps is spent.  The log line
    counts the pole updates ("restarts") and the residual passes that were
    intercept steps, and reports the returned pole's condition.
    """
    kind = GeometryKind.parse(kind)
    if not sample:
        raise GeometryError("pole estimation needs a nonempty sample")
    if isinstance(basis, BSplineBasis):
        bas = basis
    else:
        pooled_t = np.concatenate([c.grid for c in sample])
        bas = build_response_basis(basis, pooled_t)
    packed = PackedSample.of(sample, sample_design(bas, sample, config.coef_mode))
    K = packed.design_grams()  # the band and the weights are fixed: once for the whole estimate

    ref_coef = _penalized_spline_fit(packed, K, packed.values, np.arange(packed.n) == 0, bas)
    u, skipped = packed.align(packed.y_c, packed.center(packed.band @ ref_coef))
    for i in np.flatnonzero(skipped):
        warnings.warn(f"curve {sample[i].id!r}: skipped in preliminary pole (degenerate alignment)", stacklevel=2)
    if skipped.all():
        raise DegenerateAlignment("no curve could be aligned for the preliminary pole")
    reps = u[packed.seg] * packed.y_c
    if kind is GeometryKind.SHAPE:
        reps = reps / packed.y_norm[packed.seg]
    p0_coef = _penalized_spline_fit(packed, K, reps, ~skipped, bas)
    pole = center_pole(PoleCoef(coef=p0_coef, basis=bas), packed)

    # intercept-only boosting: unpenalized constant tangent effect, step length
    # 1.  Folding Exp_{p0}(h0) back into coefficients uses product-space norms
    # and is only first-order exact for shapes, so the loop restarts at each
    # refined pole.  A pole's first residual pass, at h0 = 0, measures its
    # first-order condition: the projected mean residual against the mean norm.
    budget = config.pole_max_iterations
    K_sum = K.sum(axis=0)
    restarts, cond_prev, stop, exhausted = 0, np.inf, False, budget <= 0
    while True:
        ps = _PoleSample(packed, pole, kind)
        G_sum = ps.transform.gram(K_sum)  # sum_i G_i = Re(Z_c^H (sum_i K_i) Z_c): one Gram, not the stack
        intercept, G0 = PlsLearner.unpenalized(G_sum, "pole intercept"), G_sum / packed.n
        h0, prev, cond = np.zeros(ps.transform.m), np.inf, None
        while cond is None or budget > 0:
            # one residual pass at Exp_p(h0): the mean residual norm and the intercept step
            eps, _ = ps.residuals(ps.predictor(np.broadcast_to(h0, (packed.n, h0.size))))
            cur, step = float(np.mean(packed.norm(eps))), intercept.solve(ps.project(eps).sum(axis=0))
            if cond is None:
                cond = float(np.sqrt(max(step @ G0 @ step, 0.0)) / max(cur, 1e-300))
                stop = stop or cond <= 1e-10 or budget <= 0
                if stop:
                    break
                restarts, exhausted = restarts + 1, False  # no rule fired: the pass is the first intercept step
            budget -= 1
            if np.isfinite(prev) and prev - cur <= POLE_REL_TOL * max(prev, 1e-300):
                break
            prev, h0 = cur, h0 + step
        else:
            exhausted = True  # the budget ran out before the mean residual norm settled
        if stop:
            break
        F = ps.transform.field_coef(h0)
        n0 = float(np.sqrt(max(h0 @ G0 @ h0, 0.0)))
        if kind is GeometryKind.FORM:
            coef = pole.coef + F
        else:
            # product-space normalization of the current pole
            scale = np.sqrt(np.mean(packed.norm(packed.center(packed.band @ pole.coef)) ** 2))
            p_hat = pole.coef / scale
            coef = p_hat if n0 < 1e-14 else np.cos(n0) * p_hat + np.sin(n0) * F / n0
        pole = center_pole(PoleCoef(coef=coef, basis=bas), packed)
        # the coefficient-level fold is only first-order exact for shapes: restart at the
        # refined pole unless the step vanished or the condition fell by less than half
        stop = n0 < 1e-14 or (np.isfinite(cond_prev) and cond >= 0.5 * cond_prev)
        cond_prev = cond
    log.info("pole: %d restarts, %d intercept steps, first-order condition %.3g, budget %s",
             restarts, config.pole_max_iterations - budget, cond, "exhausted" if exhausted else "not exhausted")
    return pole


@serial_blas
def boost_fit(
    sample: list[CurveSample],
    covariates: dict,
    config: BoostConfig,
    pole: PoleCoef,
    kind: GeometryKind,
) -> FittedModel:
    """Run component-wise Riemannian L2-boosting at a fixed pole.

    Per iteration: compute transported residuals, PLS-refit every
    base-learner, select the one with minimal residual sum of squares (ties
    broken towards the smallest index) and add step_length times its fit to
    the coefficients.  The risk trace records the empirical mean squared
    geodesic distance after every update; entry 0 is the risk of the bare
    pole.
    """
    kind = GeometryKind.parse(kind)
    ps = _PoleSample.of(sample, pole, kind, config.coef_mode)
    ctx = _FitContext.of(ps, covariates, config)
    risks, selection = [], []
    for thetas, risk, j in ctx.boost(ps, config):
        risks.append(risk)
        selection.append(j)
    effects = [
        FittedEffect(cmap=cm, theta=theta, lam=lr.lam)
        for cm, theta, lr in zip(ctx.cmaps, thetas, ctx.learners)
    ]
    return FittedModel(
        kind=kind,
        pole=pole,
        transform=ctx.transform,
        effects=effects,
        risk_trace=np.array(risks),
        m_stop=config.max_iterations,
        selection_trace=np.array(selection[1:], dtype=int),
        response_penalty=config.response_penalty,
        weight_rule=config.weight_rule,
        rng_seed=config.rng_seed,
    )


def model_sample(model: FittedModel, sample: list[CurveSample]) -> _PoleSample:
    """A sample packed at a fitted model's pole; a command that evaluates a model several times packs it once."""
    return _PoleSample.of(sample, model.pole, model.kind, model.coef_mode, model.transform)


@serial_blas
def transported_residuals(model: FittedModel, sample: list[CurveSample], covariates: dict) -> ResidualSet:
    """Transported residuals of a sample under a fitted model."""
    ps = model_sample(model, sample)
    eps, _ = ps.residuals(ps.predictor(model.predictor_coefs(covariates, len(sample))))
    cuts = ps.packed.offsets[1:-1]
    return ResidualSet(
        residuals=[
            TangentEvals(grid=c.grid, values=e, pole_evals=p, kind=model.kind, weights=c.weights)
            for c, e, p in zip(sample, np.split(eps, cuts), np.split(ps.p_rep, cuts))
        ]
    )


def _fold_contexts(full: _PoleSample, covariates: dict, config: BoostConfig,
                   trains: list[np.ndarray]) -> list[_FitContext]:
    """Each fold's learners at its own tangent transform, from its training rows of the whole sample's normal
    projections and design Grams, computed once here."""
    normals = normal_projections(full.packed, full.pole, full.kind)
    K = full.packed.design_grams()
    ctxs = []
    for train in trains:
        transform = nullspace_transform(constraint_mean([p[train] for p in normals]))
        ctxs.append(_FitContext(transform, full.pole.basis, transform.gram(K[train]),
                                {k: v[train] for k, v in covariates.items()}, config))
    return ctxs


@serial_blas
def _cv_lockstep(args) -> np.ndarray:
    """Held-out risks (folds, iterations + 1) of the given folds, advanced together (a pool worker's entry point).

    The sample is packed once, with one design-Gram stack and one set of
    normal projections at the pole; each fold's tangent transform, Gram
    stack and learners are built from its training rows of these.  Every
    iteration makes one residual pass over the folds' training sets,
    stacked fold-major (each fold's field and projection through its own
    Z_c), updates each fold through ``_FitContext.step``, and makes one
    distance pass over the whole sample, which the held-out sets partition.
    Every per-curve operation is that of a one-fold fit, so each fold's
    risks are those of ``boost_fit`` on its training curves, stopped at each
    iteration, evaluated on its held-out curves, bit for bit.
    """
    sample, covariates, config, kind, pole, assignment, folds = args
    full = _PoleSample.of(sample, pole, kind, config.coef_mode)
    covariates = {k: np.asarray(v) for k, v in covariates.items()}
    trains = [np.flatnonzero(assignment != f) for f in folds]
    tests = [np.flatnonzero(assignment == f) for f in folds]
    ctxs = _fold_contexts(full, covariates, config, trains)
    test_designs = [[cm.design({k: v[test] for k, v in covariates.items()}, test.size) for cm in ctx.cmaps]
                    for ctx, test in zip(ctxs, tests)]
    stacked = full.take(np.concatenate(trains))
    ends = np.cumsum([train.size for train in trains])
    spans = [slice(end - train.size, end) for end, train in zip(ends, trains)]  # each fold's stacked curves
    thetas = [ctx.zero_thetas() for ctx in ctxs]
    held_out_coefs = np.zeros((full.packed.n, pole.basis.dim), dtype=complex)  # Z_c c_i of each curve's own fold
    risks = np.empty((len(folds), config.max_iterations + 1))
    for it in range(config.max_iterations + 1):
        if it:
            for ctx, th, projs in zip(ctxs, thetas, fold_projs):
                ctx.step(th, projs, config.step_length)
        train_coefs = [ctx.transform.curve_coefs(ctx.predictor_coefs(th)) for ctx, th in zip(ctxs, thetas)]
        eps, d = stacked.residuals(stacked.packed.field(np.concatenate(train_coefs)))
        x = stacked.packed.project(eps)
        fold_projs = [ctx.transform.coords(x[span]) for ctx, span in zip(ctxs, spans)]
        if it:
            for span in spans:
                _training_risk(d[span], it)
        for ctx, th, test, designs in zip(ctxs, thetas, tests, test_designs):
            held_out_coefs[test] = ctx.transform.curve_coefs(_additive_coefs(designs, th, test.size, ctx.m))
        d = full.distances(full.packed.field(held_out_coefs))
        risks[:, it] = [np.mean(d[test] ** 2) for test in tests]
    return risks


@serial_blas
def cv_early_stop(
    sample: list[CurveSample],
    covariates: dict,
    config: BoostConfig,
    kind: GeometryKind,
    pole: PoleCoef | None = None,
    workers: int = 1,
) -> CvResult:
    """Curve-wise cross-validated early stopping.

    Folds partition curves (never single evaluation points) by a seeded
    shuffle; the pole is estimated once on the full sample and shared across
    folds.  Returns the argmin of the fold-averaged held-out risk curve (ties
    towards the smallest iteration).  All folds advance in lockstep
    (``_cv_lockstep``): one residual pass over their stacked training sets
    and one held-out distance pass over the sample per iteration.  With
    workers > 1, min(workers, folds) processes each run a contiguous chunk
    of the folds through ``_cv_lockstep``.  Every fold runs OpenBLAS at one
    thread (``_cv_lockstep`` pins it again inside a worker) and every per-curve
    operation is independent of the other folds in its chunk, so the fold
    risks do not depend on the worker count, bit for bit.
    """
    if workers < 1:
        raise EffectError(f"workers must be at least 1, got {workers}")
    kind = GeometryKind.parse(kind)
    n = len(sample)
    folds = config.cv_folds
    if pole is None:
        pole = estimate_pole(sample, kind, config.response_basis, config)
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % folds
    counts = np.bincount(assignment, minlength=folds)
    if np.any(counts < 2):
        raise EffectError(f"cross-validation fold with fewer than 2 curves (sizes {counts.tolist()})")
    chunks = np.array_split(np.arange(folds), min(workers, folds))
    jobs = [(sample, covariates, config, kind, pole, assignment, chunk) for chunk in chunks]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool_exec:
            fold_risks = np.vstack(list(pool_exec.map(_cv_lockstep, jobs)))
    else:
        fold_risks = _cv_lockstep(jobs[0])
    log.debug("cv: %d folds in lockstep over %d chunk(s)", folds, len(jobs))
    cv_risk = fold_risks.mean(axis=0)
    m_stop = int(np.argmin(cv_risk))
    return CvResult(m_stop=m_stop, cv_risk=cv_risk, fold_risks=fold_risks, fold_assignment=assignment)


@serial_blas
def predict_means(
    model: FittedModel,
    covariates: dict,
    grids: list[np.ndarray],
    weights: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Conditional mean representatives Exp_[p](h(x_i)) of every covariate row, row i on grids[i].

    One packed exponential per block of about PREDICT_BLOCK_POINTS evaluation points.
    Covariates are checked like the fitting table: bad values raise ``EffectError``.
    A coefficient-mode grid without basis-dimension points raises ``GeometryError``.
    """
    n = len(grids)
    if n == 0:
        return []
    grids = [np.asarray(g, dtype=float) for g in grids]
    if model.coef_mode:
        for i, g in enumerate(grids):
            if g.size != model.basis.dim:
                raise GeometryError(f"prediction row {i}: coefficient mode needs {model.basis.dim} points, got {g.size}")
    fields = model.transform.curve_coefs(model.predictor_coefs(covariates, n))
    if weights is None:
        # per-point file weights are not reconstructible on a new grid
        rule = "trapezoid" if model.weight_rule == "column" else model.weight_rule
        gram = model.basis.gram if model.coef_mode else None
        weights = [rule_weights(rule, g, gram) for g in grids]
    step = max(1, PREDICT_BLOCK_POINTS // max(g.size for g in grids))
    means = []
    for lo in range(0, n, step):
        rows = range(lo, min(lo + step, n))
        if model.coef_mode:
            band = DesignBand.identity(model.basis.dim, len(rows))
        else:
            band = model.basis.band(np.concatenate([grids[i] for i in rows]))
        packed = PackedSample([weights[i] for i in rows], [f"prediction row {i}" for i in rows], band=band)
        p_rep = packed.pole_rep(band @ model.pole.coef, model.kind)
        means += np.split(packed.exp(p_rep, packed.field(fields[lo : lo + step]), model.kind), packed.offsets[1:-1])
    return means


def predict_mean(
    model: FittedModel,
    x: dict,
    grid: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Conditional mean representative Exp_[p](h(x)) on a grid: ``predict_means`` for one row."""
    row = {name: np.array([value]) for name, value in x.items()}
    return predict_means(model, row, [grid], None if weights is None else [weights])[0]


@serial_blas
def empirical_risk(model: FittedModel, sample: list[CurveSample], covariates: dict,
                   pole_sample: _PoleSample | None = None) -> float:
    """Empirical mean squared geodesic distance between sample and fitted means (``pole_sample`` as in rmse_effect)."""
    ps = model_sample(model, sample) if pole_sample is None else pole_sample
    d = ps.distances(ps.predictor(model.predictor_coefs(covariates, len(sample))))
    return float(np.mean(d**2))


def _transport_between_poles(
    vals: np.ndarray,
    from_rep: np.ndarray,
    to_rep: np.ndarray,
    packed: PackedSample,
    kind: GeometryKind,
) -> np.ndarray:
    """Align the source pole to the target and transport tangent evaluations of the packed sample."""
    u, _ = packed.align(from_rep, to_rep, what="pole alignment degenerate in effect comparison")
    u = u[packed.seg]
    return packed.transport(u * from_rep, to_rep, u * vals, kind)


@serial_blas
def rmse_effect(
    model: FittedModel,
    sample: list[CurveSample],
    covariates: dict,
    effect_name: str,
    true_effect_evals: list[np.ndarray],
    true_total_evals: list[np.ndarray],
    true_pole_evals: list[np.ndarray] | None = None,
    pole_sample: _PoleSample | None = None,
) -> float:
    """Relative mean squared error of one fitted effect against a known truth.

    rMSE = sum_i ||hhat_j(x_i) - h_j(x_i)||_i^2 / sum_i ||h(x_i)||_i^2 with
    per-curve empirical inner products; the fitted effect is parallel
    transported from the estimated pole to the true pole before comparing.
    ``pole_sample`` is the sample's ``model_sample``, when the caller has it.
    """
    idx = [k for k, eff in enumerate(model.effects) if eff.spec.name == effect_name]
    if not idx:
        raise EffectError(f"unknown effect {effect_name!r}")
    eff = model.effects[idx[0]]
    ps = model_sample(model, sample) if pole_sample is None else pole_sample
    packed = ps.packed
    vals = ps.predictor(eff.cmap.design(covariates, len(sample)) @ eff.theta.T)
    if true_pole_evals is not None:
        target = packed.pole_rep(np.concatenate(true_pole_evals), model.kind)
        vals = _transport_between_poles(vals, ps.p_rep, target, packed, model.kind)
    diff = vals - np.concatenate(true_effect_evals)
    total = np.concatenate(true_total_evals)
    num = float(np.sum(packed.inner(diff, diff).real))
    den = float(np.sum(packed.inner(total, total).real))
    if den <= 0:
        raise EffectError("true predictor has zero variance; rMSE undefined")
    return num / den
