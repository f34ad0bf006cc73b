"""Acceptance suite: one test per criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.  The simulation-study criterion is the long one (a few
minutes); everything else is fast.
"""

import time

import numpy as np
import pytest

from shapeboost.basis import SplineConfig, build_response_basis
from shapeboost.boost import BoostConfig, boost_fit, estimate_pole
from shapeboost.effects import (
    KronPenalty,
    PlsLearner,
    df_to_lambda,
    unvec,
)
from shapeboost.factorize import effect_factorization, factorize_effect
from shapeboost.geometry import (
    CurveSample,
    GeometryKind,
    empirical_inner,
    empirical_norm,
    exp_map,
    geodesic_dist,
    log_map,
    parallel_transport,
    representative,
    tangent_project,
    trapezoid_weights,
)
from shapeboost.simulate import SimConfig, default_effects, gen_dataset, gen_truth, run_replicate, study_configs

from conftest import curve_from, irregular_grid, random_pole_and_tangent, smooth_curve

KINDS = (GeometryKind.FORM, GeometryKind.SHAPE)
_RISK_DECREASE_LOG = []


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def truth():
    return gen_truth()


def test_criterion_1_geometry_round_trip():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst_rt, worst_d = 0.0, 0.0
    for kind in KINDS:
        for _ in range(200):
            k = int(rng.integers(3, 121))
            grid, w, p, beta = random_pole_and_tangent(rng, kind, k=k)
            y = exp_map(p, beta, kind)
            curve = curve_from(y, grid, w)
            d = geodesic_dist(curve, p, kind)
            worst_d = max(worst_d, abs(d - beta.norm()))
            back = log_map(p, curve, kind)
            worst_rt = max(
                worst_rt,
                empirical_norm(back.values - beta.values, w) / max(1.0, beta.norm()),
            )
    elapsed = time.time() - t0
    _report(
        1,
        worst_rt <= 1e-8 and worst_d <= 1e-8 and elapsed < 10.0,
        f"round-trip {worst_rt:.2e}, dist err {worst_d:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_transport_suite():
    rng = np.random.default_rng(1002)
    worst_iso, worst_tan, worst_geo, worst_id = 0.0, 0.0, 0.0, 0.0
    for kind in KINDS:
        for _ in range(100):
            grid = irregular_grid(rng, int(rng.integers(4, 80)))
            w = trapezoid_weights(grid)
            p = smooth_curve(rng, grid)
            y = smooth_curve(rng, grid)
            eps = tangent_project(smooth_curve(rng, grid), y, w, kind, grid)
            rep_p = representative(curve_from(p, grid, w), y, kind).values
            out = parallel_transport(eps.pole_evals, rep_p, eps, kind)
            worst_iso = max(worst_iso, abs(out.norm() - eps.norm()))
            worst_tan = max(worst_tan, out.constraint_residuals().max() / max(1.0, out.norm()))
            ident = parallel_transport(eps.pole_evals, eps.pole_evals, eps, kind)
            worst_id = max(worst_id, empirical_norm(ident.values - eps.values, w))
            lg = log_map(p, curve_from(y, grid, w), kind)
            rep_y = representative(curve_from(y, grid, w), p, kind).values
            moved = parallel_transport(lg.pole_evals, rep_y, lg, kind)
            back = log_map(rep_y, curve_from(p, grid, w), kind)
            worst_geo = max(worst_geo, empirical_norm(moved.values + back.values, w))
    _report(
        2,
        worst_iso <= 1e-10 and worst_tan <= 1e-8 and worst_geo <= 1e-8 and worst_id <= 1e-12,
        f"isometry {worst_iso:.2e}, tangency {worst_tan:.2e}, geodesic id {worst_geo:.2e}, identity {worst_id:.2e}",
    )


def test_criterion_3_invariance_end_to_end(truth):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for kind in KINDS:
        cfg = SimConfig(n=36, k_bar=25, kind=kind, target_nsr=0.6, seed=77)
        sample, cov, _ = gen_dataset(truth, cfg)
        effects = default_effects(df=4.0)
        bc = BoostConfig(
            effects=effects, step_length=0.25, max_iterations=20,
            response_basis=truth.pole.basis.cfg, response_penalty="ridge",
        )

        def run(curves):
            pole = estimate_pole(curves, kind, truth.pole.basis, bc)
            model = boost_fit(curves, cov, bc, pole, kind)
            return model.risk_trace

        base = run(sample)
        moved = []
        for c in sample:
            u = np.exp(1j * rng.uniform(0, 2 * np.pi))
            gam = 3.0 * (rng.normal() + 1j * rng.normal())
            lam = rng.uniform(0.5, 2.0) if kind is GeometryKind.SHAPE else 1.0
            moved.append(CurveSample(c.id, c.grid, lam * u * c.values + gam, c.weights))
        other = run(moved)
        worst = max(worst, float(np.max(np.abs(other - base) / np.maximum(np.abs(base), 1e-300))))
    _report(3, worst <= 1e-8, f"max relative risk-trace change {worst:.2e}")


def test_criterion_4_pls_oracle():
    rng = np.random.default_rng(1004)
    worst_solve, worst_df = 0.0, 0.0
    kron_exact = True
    rank_ok = True
    for trial in range(50):
        m = int(rng.integers(2, 9))
        mj = int(rng.integers(1, 7))
        A = rng.normal(size=(m * mj + 5, m * mj))
        Psi = A.T @ A
        psi = rng.normal(size=m * mj)
        P_cov_root = rng.normal(size=(mj, mj))
        P_cov = P_cov_root.T @ P_cov_root + 0.1 * np.eye(mj)
        P_tan_root = rng.normal(size=(m, m))
        P_tan = P_tan_root.T @ P_tan_root + 0.1 * np.eye(m)
        lam1, lam2 = float(rng.uniform(0.01, 2)), float(rng.uniform(0.01, 2))
        pen = KronPenalty(lam1, lam2, P_cov, P_tan)
        # dense construction by explicit index loops
        R = np.zeros((m * mj, m * mj))
        for l in range(mj):
            for r in range(m):
                for l2 in range(mj):
                    for r2 in range(m):
                        R[l * m + r, l2 * m + r2] = lam1 * P_cov[l, l2] * (r == r2) + lam2 * (l == l2) * P_tan[r, r2]
        kron_exact &= np.array_equal(pen.materialize(), pen.materialize())
        kron_exact &= np.allclose(pen.materialize(), R, atol=1e-13)
        v = PlsLearner(Psi, pen).solve(psi)
        brute = np.linalg.solve(Psi + R, psi)
        denom = max(np.linalg.norm(brute), 1e-300)
        worst_solve = max(worst_solve, np.linalg.norm(v - brute) / denom)
        # df calibration oracle
        df_target = float(rng.uniform(1.0, min(m * mj - 1, 8)))
        lam, _ = df_to_lambda(Psi, P_cov, P_tan, df_target)
        S = np.kron(P_cov, np.eye(m)) + np.kron(np.eye(mj), P_tan)
        df = float(np.trace(np.linalg.solve(Psi + lam * S, Psi)))
        worst_df = max(worst_df, abs(df - df_target))
        lam0, _ = df_to_lambda(Psi, P_cov, P_tan, float(m * mj))
        rank_ok &= lam0 == 0.0
    _report(
        4,
        worst_solve <= 1e-8 and kron_exact and worst_df <= 1e-4 and rank_ok,
        f"solve {worst_solve:.2e}, df err {worst_df:.2e}, kron exact {kron_exact}, rank {rank_ok}",
    )


def test_criterion_5_factorization_oracle():
    rng = np.random.default_rng(1005)
    worst_agree, worst_rec = 0.0, 0.0
    optimal = True
    svd_match = True
    for trial in range(20):
        m = int(rng.integers(3, 7))
        mj = int(rng.integers(2, 6))
        theta = rng.normal(size=(m, mj))
        A0 = rng.normal(size=(m + 12, m))
        A1 = rng.normal(size=(mj + 9, mj))
        G0, G1 = A0.T @ A0, A1.T @ A1
        f1 = factorize_effect(theta, G0, G1, "cholesky")
        f2 = factorize_effect(theta, method="qr", A0=A0, A1=A1)
        worst_agree = max(worst_agree, np.abs(f1.singular_values - f2.singular_values).max())
        U1 = f1.scalar_coefs / np.where(f1.singular_values > 0, f1.singular_values, 1.0)
        rec = f1.directions @ np.diag(f1.singular_values) @ U1.T
        err = rec - theta
        total = np.trace(G0 @ theta @ G1 @ theta.T)
        worst_rec = max(worst_rec, np.sqrt(max(np.trace(G0 @ err @ G1 @ err.T), 0.0) / total))
        L = min(2, f1.singular_values.size)
        rec_L = f1.directions[:, :L] @ np.diag(f1.singular_values[:L]) @ U1[:, :L].T
        ours = np.trace(G0 @ (rec_L - theta) @ G1 @ (rec_L - theta).T)
        for _ in range(100):
            alt = sum(np.outer(rng.normal(size=m), rng.normal(size=mj)) for _ in range(L))
            d = np.trace(G0 @ alt @ G1 @ alt.T)
            if d > 0:
                alt = alt * (np.trace(G0 @ alt @ G1 @ theta.T) / d)
            optimal &= np.trace(G0 @ (alt - theta) @ G1 @ (alt - theta).T) >= ours - 1e-10
        fid = factorize_effect(theta, np.eye(m), np.eye(mj))
        svd_match &= np.allclose(fid.singular_values, np.linalg.svd(theta, compute_uv=False), atol=1e-10)
    _report(
        5,
        worst_agree <= 1e-8 and worst_rec <= 1e-8 and optimal and svd_match,
        f"variant agreement {worst_agree:.2e}, reconstruction {worst_rec:.2e}, optimal {optimal}, svd {svd_match}",
    )


def test_criterion_6_frechet_mean():
    rng = np.random.default_rng(1006)
    basis_cfg = SplineConfig(degree=3, n_knots=8, cyclic=True)
    basis = build_response_basis(basis_cfg, np.linspace(0, 1, 60))
    dense = np.linspace(0, 1, 90, endpoint=False)

    # two-curve midpoint (forms)
    grid = irregular_grid(rng, 50)
    w = trapezoid_weights(grid)
    c1 = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
    c2 = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
    y1 = CurveSample("a", grid, basis.design(grid) @ c1, w)
    y2 = CurveSample("b", grid, basis.design(grid) @ c2, w)
    cfg = BoostConfig(effects=[], response_basis=basis_cfg, pole_max_iterations=300)
    pole = estimate_pole([y1, y2], GeometryKind.FORM, basis, cfg)
    p_ev = basis.design(grid) @ pole.coef
    d1 = geodesic_dist(y1, p_ev, GeometryKind.FORM)
    d2 = geodesic_dist(y2, p_ev, GeometryKind.FORM)
    d12 = geodesic_dist(y1, basis.design(grid) @ c2, GeometryKind.FORM)
    mid_err = max(abs(d1 - d2), abs(d1 - d12 / 2))

    # first-order condition on 10 random samples
    from shapeboost.boost import _PoleSample

    worst_cond = 0.0
    for trial in range(10):
        kind = KINDS[trial % 2]
        curves = []
        base_coef = np.linalg.lstsq(basis.design(dense), smooth_curve(rng, dense), rcond=None)[0]
        for i in range(8):
            g = irregular_grid(rng, int(rng.integers(15, 40)))
            wg = trapezoid_weights(g)
            vals = basis.design(g) @ base_coef
            noise = tangent_project(
                0.15 * (rng.normal(size=g.size) + 1j * rng.normal(size=g.size)), vals, wg, kind, g
            )
            curves.append(CurveSample(f"r{i}", g, vals + noise.values, wg))
        pole_t = estimate_pole(curves, kind, basis, cfg)
        ps = _PoleSample.of(curves, pole_t, kind, coef_mode=False)
        eps, _ = ps.residuals(np.zeros((len(curves), ps.transform.m)))
        grams = ps.grams()
        mean_coef = np.linalg.solve(grams.sum(axis=0), ps.project(eps).sum(axis=0))
        G0 = grams.mean(axis=0)
        ratio = np.sqrt(max(mean_coef @ G0 @ mean_coef, 0.0)) / max(np.mean(ps.packed.norm(eps)), 1e-300)
        worst_cond = max(worst_cond, ratio)
    _report(
        6,
        mid_err <= 1e-6 and worst_cond <= 1e-6,
        f"midpoint {mid_err:.2e}, first-order condition {worst_cond:.2e}",
    )


@pytest.mark.slow
def test_criterion_7_simulation_study(truth):
    t0 = time.time()
    cells = {}
    nuisance_shares, nuisance_rmse = [], []
    for cfg in study_configs(reps=20):
        out = run_replicate(truth, cfg)
        _RISK_DECREASE_LOG.append((out["risk_first"], out["risk_last"]))
        cells.setdefault((cfg.kind.value, cfg.n), []).append(out)
        nuisance_shares.append(out["nuisance_share"])
        nuisance_rmse.extend([out["rmse_const0"], out["rmse_lin_z1"], out["rmse_smooth_z2"]])
    medians = {
        (kind, n, effect): float(np.median([o[f"rmse_{effect}"] for o in outs]))
        for (kind, n), outs in cells.items()
        for effect in ("tilt", "group")
    }
    elapsed = time.time() - t0
    ok = True
    detail = []
    for kind in ("form", "shape"):
        mt54, mt162 = medians[(kind, 54, "tilt")], medians[(kind, 162, "tilt")]
        mg54, mg162 = medians[(kind, 54, "group")], medians[(kind, 162, "group")]
        detail.append(f"{kind}: tilt {mt54:.3f}->{mt162:.3f}, group {mg54:.3f}->{mg162:.3f}")
        ok &= mt54 <= 0.10 and mg54 <= 0.05
        ok &= mt162 < mt54 and mg162 < mg54
    nuis_share = float(np.median(nuisance_shares))
    nuis_med = float(np.median(nuisance_rmse))
    ok &= nuis_share < 0.5 and nuis_med <= 0.02
    ok &= elapsed <= 15 * 60
    _report(
        7,
        ok,
        "; ".join(detail) + f"; nuisance share {nuis_share:.2f}, nuisance rmse {nuis_med:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_extreme_sparsity(truth):
    from shapeboost.boost import _transport_between_poles
    from shapeboost.geometry import center

    cfg = SimConfig(n=720, k_bar=3, kind="form", target_nsr=1.05, seed=808, weight_rule="uniform")
    sample, cov, dtruth = gen_dataset(truth, cfg)
    assert all(c.k == 3 for c in sample)
    effects = default_effects(df=4.0)
    bc = BoostConfig(
        effects=effects, step_length=0.25, max_iterations=200,
        response_basis=truth.pole.basis.cfg, response_penalty="ridge",
    )
    pole = estimate_pole(sample, cfg.kind, truth.pole.basis, bc)
    model = boost_fit(sample, cov, bc, pole, cfg.kind)
    _RISK_DECREASE_LOG.append((model.risk_trace[0], model.risk_trace[model.m_stop]))
    fac = effect_factorization(model, sample, cov, "tilt")

    g = np.linspace(0, 1, 200)
    w = trapezoid_weights(g)
    B = model.basis.design(g)
    xi_fit = B @ model.transform.field_coef(fac.directions[:, 0])
    p_fit = center(B @ model.pole.coef, w)
    m0 = truth.pole.basis.dim
    Bt = truth.pole.basis.design(g)
    V = dtruth.fields["tilt"]
    tm = truth.effect_maps["tilt"]
    batch = {"group": np.array(["0"] * 9 + ["1"] * 9), "z1": np.tile(np.arange(-60.0, 61.0, 15.0), 2)}
    Bz = tm.design(batch, 18)
    SD = np.sqrt(w)[:, None] * Bt
    GB = SD.T @ SD
    G0 = np.zeros((2 * m0, 2 * m0))
    G0[:m0, :m0] = GB
    G0[m0:, m0:] = GB
    tfac = factorize_effect(V, G0, Bz.T @ Bz / 18)
    vt = tfac.directions[:, 0]
    xi_true = Bt @ (vt[:m0] + 1j * vt[m0:])
    p_true = center(Bt @ truth.pole.coef, w)
    xi_fit_t = _transport_between_poles(xi_fit, p_fit, p_true, w, model.kind)
    corr = abs(empirical_inner(xi_fit_t, xi_true, w).real) / (
        empirical_norm(xi_fit_t, w) * empirical_norm(xi_true, w)
    )
    _report(8, corr >= 0.8, f"leading-direction correlation {corr:.3f} on {len(sample)} triangles")


def test_criterion_9_boosting_behavior(truth, tmp_path):
    # selection trace vs exhaustive refit oracle on a 5-effect, 30-iteration run
    from shapeboost.boost import _FitContext, _PoleSample
    from shapeboost.effects import assemble_psi_vector

    cfg = SimConfig(n=36, k_bar=25, kind="form", target_nsr=0.8, seed=909)
    sample, cov, _ = gen_dataset(truth, cfg)
    effects = default_effects(df=4.0)
    assert len(effects) == 5
    bc = BoostConfig(
        effects=effects, step_length=0.3, max_iterations=30,
        response_basis=truth.pole.basis.cfg, response_penalty="ridge", rng_seed=3,
    )
    pole = estimate_pole(sample, cfg.kind, truth.pole.basis, bc)
    model = boost_fit(sample, cov, bc, pole, cfg.kind)
    _RISK_DECREASE_LOG.append((model.risk_trace[0], model.risk_trace[model.m_stop]))

    ps = _PoleSample.of(sample, pole, GeometryKind.FORM, coef_mode=False)
    ctx = _FitContext(ps, cov, bc)
    thetas = [np.zeros((ctx.m, cm.m_j)) for cm in ctx.cmaps]
    trace_ok = True
    for it in range(bc.max_iterations):
        projs, _ = ctx.residual_pass(ctx.predictor_coefs(thetas))
        sses = []
        cands = []
        for j in range(len(effects)):
            psi = assemble_psi_vector(ctx.cov_designs[j], projs)
            v = ctx.learners[j].solve(psi)
            theta_j = unvec(v, ctx.m, ctx.cmaps[j].m_j)
            eps, _ = ps.residuals(ctx.predictor_coefs(thetas))
            fitv = ps.predictor(ctx.cov_designs[j] @ theta_j.T)
            total = float(np.sum(ps.packed.norm(eps - fitv) ** 2))
            sses.append(total)
            cands.append(theta_j)
        j_star = int(np.argmin(sses))
        trace_ok &= j_star == int(model.selection_trace[it])
        thetas[j_star] = thetas[j_star] + bc.step_length * cands[j_star]

    # deterministic rerun: byte-identical serialized models
    from shapeboost.io import save_model

    model2 = boost_fit(sample, cov, bc, pole, GeometryKind.FORM)
    f1, f2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(f1, model, "h")
    save_model(f2, model2, "h")
    identical = f1.read_bytes() == f2.read_bytes()

    decreasing = all(end < start for start, end in _RISK_DECREASE_LOG)
    _report(
        9,
        trace_ok and identical and decreasing,
        f"selection oracle {trace_ok}, byte-identical {identical}, "
        f"risk decreased on {len(_RISK_DECREASE_LOG)} suite fits {decreasing}",
    )
