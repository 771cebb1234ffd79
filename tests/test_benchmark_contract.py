"""The package surface that the benchmark under ``perfbench/`` relies on.

``perfbench/workloads.py`` builds instances through the package's
generators and reads each LP model's shape; ``perfbench/tracing.py``
rebinds module attributes by name and wraps the LP backend. Renaming or
dropping any of them would crash the benchmark, so these tests build one
instance of every workload and install and remove the tracer. A package
that stopped calling through a rebound attribute would not crash but
would escape the benchmark's plan check and counters, so one instance
also runs under the tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from entsched import lp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # tracing.py imports its sibling as the top-level module `workloads`
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    tracing = _load("tracing", monkeypatch)
    return workloads, tracing


def test_every_workload_builds_an_instance(perfbench):
    workloads, _ = perfbench
    for workload in workloads.WORKLOADS.values():
        inst = workloads.build_instance(workload, 1)
        ncols, nrows, nnz = inst.model_shape
        assert nrows == len(inst.net.all_pairs()), workload.name
        assert 0 < nnz and nrows < ncols, workload.name


def test_tracer_install_and_uninstall_restore_everything(perfbench):
    _, tracing = perfbench
    backend = lp.get_backend()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert lp.get_backend() is not backend
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert lp.get_backend() is backend


def test_traced_run_checks_plans_and_counts_switching(perfbench):
    workloads, tracing = perfbench
    workload = workloads.WORKLOADS["fixed-plan-long"]
    inst = workloads.build_instance(workload, 1)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        workloads.simulate(workload, inst)
    finally:
        tracer.uninstall()
    assert tracer.calls["scheduler.framework_step"] > 0
    assert tracer.bad_plans == []
    assert tracer.calls["protocol.switch_probabilities"] > 0
