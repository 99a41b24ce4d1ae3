"""The benchmark's traced mode must still find every jsbnn name it wraps.

`bench/run.py --trace 1` patches module globals and class attributes by name
(`install_tracing`). A refactor that removes or renames one of them makes the
traced run crash, and one that stops calling through a name makes its spans
vanish; this test catches both without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import jsbnn.cli  # noqa: F401  (install_tracing reads the modules from sys.modules)
from jsbnn.divergence import DivergenceConfig
from jsbnn.gaussian import DiagonalGaussian
from jsbnn.network import BayesianNetwork

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)
    spec.loader.exec_module(module)
    return module


def test_install_tracing_patches_and_restores_every_name(monkeypatch):
    bench = load_bench(monkeypatch)
    trainer, autodiff = sys.modules["jsbnn.train"], sys.modules["jsbnn.autodiff"]
    originals = (trainer.gradients, trainer.draw_bundle, autodiff.Tensor.backward)
    tracer = sys.modules["tracer"].Tracer()
    try:
        bench.install_tracing(tracer)
        assert len(tracer._undo) == 28
        net = BayesianNetwork.initialize((2, 3, 2), DiagonalGaussian([0.0], [1.0]), 0)
        batch = (np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        trainer.gradients(net, batch, "jsg_mc", DivergenceConfig(alpha=0.5, seed=1))
    finally:
        tracer.restore()
    assert (trainer.gradients, trainer.draw_bundle, autodiff.Tensor.backward) == originals
    names = {span[0] for span in tracer.spans}
    assert {"train.gradients", "loss.draw_bundle", "loss.build_loss_graph", "autodiff.backward"} <= names
    assert tracer.counts["autodiff.tensors"] > 0
