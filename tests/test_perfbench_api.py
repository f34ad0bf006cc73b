"""The benchmark under ``perfbench/`` imports, wraps and calls package names.

These tests import its modules as the benchmark does (``perfbench/`` on
``sys.path``), so that renaming or deleting a name it needs fails here, not
only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import shapeboost.cli as sbcli
from shapeboost.basis import SplineConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("gen", "pipeline", "probes")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("probes"), importlib.import_module("pipeline"), importlib.import_module("gen")
    for name in MODULES:
        sys.modules.pop(name, None)


def test_cli_wrappers_install_and_restore(perfbench):
    probes, _, _ = perfbench
    tracer = probes.Tracer("test")
    probes._install_cli_wrappers(tracer)
    patched = list(tracer._patched)
    try:
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, attr
        sbcli.build_response_basis(SplineConfig(degree=3, n_knots=4), np.linspace(0, 1, 20))
        assert [s["name"] for s in tracer.spans] == ["basis.build_response_basis"]
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, attr
    assert tracer._patched == []


def test_pipeline_commands_parse(perfbench, tmp_path):
    # every option the benchmark passes still exists on its command
    _, pipeline, gen = perfbench
    parser = sbcli.build_parser()
    for workload in gen.WORKLOADS:
        for op, argv in pipeline.commands(tmp_path, workload):
            assert parser.parse_args(argv).func is getattr(sbcli, f"cmd_{op}")
