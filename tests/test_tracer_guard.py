"""The benchmark's traced run rebinds injflow functions and methods by name
(benchmark/tracer.py); a rename in the package must fail here instead of
ending `benchmark/run.py --trace 1` in a KeyError."""

import importlib.util
from pathlib import Path

import numpy as np

import injflow
import injflow.cli  # noqa: F401  (the tracer patches every module)
from injflow.expansive import random_injective_relu
from injflow.flows import make_coupling_block
from injflow.network import InjectiveNetwork

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("injflow_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(path):
    mod_name, attr = path.split(":")
    owner = getattr(injflow, mod_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_installs_records_and_uninstalls():
    tracer_mod = _load_tracer_module()
    paths = [path for path, _ in tracer_mod._FUNCTION_SPANS]
    originals = {path: _bound(path) for path in paths}
    tracer = tracer_mod.Tracer(injflow)
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        net = InjectiveNetwork([make_coupling_block(2, 2, rng=rng, hidden=8),
                                random_injective_relu(2, 4, rng),
                                make_coupling_block(4, 2, rng=rng, hidden=8)])
        injflow.projection.project_to_range(net, rng.normal(size=(5, 4)))
        injflow.projection.relu_pseudo_inverse([[1.0]], [1.0], [2.0, 0.5])
        injflow.projection.linear_pseudo_inverse([[1.0], [0.0]], [3.0, 4.0])
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"projection.project", "projection.relu_pinv", "projection.linear_pinv",
            "network.forward", "expansive.forward", "flows.T1.inverse"} <= names
    for path in paths:
        assert _bound(path) is originals[path], path
