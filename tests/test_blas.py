"""The one-thread OpenBLAS pin of the numerical entry points (``shapeboost._blas``)."""

import numpy as np
import pytest

from shapeboost import _blas, boost, simulate
from shapeboost.boost import BoostConfig, boost_fit, estimate_pole
from shapeboost.geometry import GeometryKind
from shapeboost.simulate import SimConfig, gen_dataset, gen_truth

from test_boost import BASIS, make_dataset

CONTROLS = _blas.controls()
pytestmark = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS thread control found")


def counts() -> list[int]:
    return [get() for get, _ in CONTROLS]


@pytest.fixture
def two_threads():
    """Every controlled OpenBLAS at 2 threads during the test, at its previous count after it."""
    before = counts()
    try:
        for _, set_ in CONTROLS:
            set_(2)
        if counts() != [2] * len(CONTROLS):
            pytest.skip("OpenBLAS does not run 2 threads here")
        yield
    finally:
        for (_, set_), count in zip(CONTROLS, before):
            set_(count)


def recording(monkeypatch, module, name: str) -> list[list[int]]:
    """Replace ``module.name`` by a wrapper that records the thread counts at every call."""
    seen = []
    inner = getattr(module, name)

    def probe(*args, **kwargs):
        seen.append(counts())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, probe)
    return seen


@_blas.serial_blas
def _counts_inside() -> list[int]:
    return counts()


@_blas.serial_blas
def _fail():
    raise ValueError("inside")


@_blas.serial_blas
def _nested() -> tuple[list[int], list[int]]:
    inner = _counts_inside()
    return inner, counts()


def test_every_library_runs_one_thread_inside(two_threads):
    assert _counts_inside() == [1] * len(CONTROLS)


def test_counts_restored_after_return_and_exception(two_threads):
    before = counts()
    _counts_inside()
    assert counts() == before
    with pytest.raises(ValueError, match="inside"):
        _fail()
    assert counts() == before


def test_nested_calls_restore_at_outermost_exit(two_threads):
    inner, after_inner = _nested()
    assert inner == after_inner == [1] * len(CONTROLS)
    assert counts() == [2] * len(CONTROLS)


def test_fit_runs_one_thread(two_threads, rng, monkeypatch):
    curves, cov, effects, basis, _ = make_dataset(rng, n=12)
    config = BoostConfig(effects=effects, step_length=0.4, max_iterations=3, response_basis=BASIS)
    pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
    seen = recording(monkeypatch, boost, "assemble_psi_matrix")
    boost_fit(curves, cov, config, pole, GeometryKind.FORM)
    assert seen and all(c == [1] * len(CONTROLS) for c in seen)
    assert counts() == [2] * len(CONTROLS)


def test_cv_fold_runs_one_thread(two_threads, rng, monkeypatch):
    # a pool worker calls _cv_lockstep directly, not through a pinned entry point
    curves, cov, effects, basis, _ = make_dataset(rng, n=12)
    config = BoostConfig(effects=effects, step_length=0.4, max_iterations=3, response_basis=BASIS)
    pole = estimate_pole(curves, GeometryKind.FORM, basis, config)
    seen = recording(monkeypatch, boost, "assemble_psi_matrix")
    boost._cv_lockstep((curves, cov, config, GeometryKind.FORM, pole, np.arange(len(curves)) % 3, [0, 1, 2]))
    assert seen and all(c == [1] * len(CONTROLS) for c in seen)
    assert counts() == [2] * len(CONTROLS)


def test_simulator_runs_at_callers_thread_count(two_threads, monkeypatch):
    # the simulator is chaotic on sparse grids: one thread would move its output in the last bit
    truth = gen_truth()
    seen = recording(monkeypatch, simulate, "constraint_matrix")
    gen_dataset(truth, SimConfig(n=18, k_bar=10, seed=3))
    assert seen and all(c == [2] * len(CONTROLS) for c in seen)
