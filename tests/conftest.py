"""Shared fixtures: the golden 2->3->2 network and helpers to load it."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from jsbnn.gaussian import DiagonalGaussian, VariationalParams
from jsbnn.network import BayesianNetwork, VariationalDenseLayer

GOLDEN_DIR = Path(__file__).parent / "golden" / "v1"


def build_golden_net(spec: dict, prior=None) -> BayesianNetwork:
    layers = []
    for name in ("layer0", "layer1"):
        raw = spec[name]
        layers.append(
            VariationalDenseLayer(
                fan_in=raw["fan_in"],
                fan_out=raw["fan_out"],
                weights=VariationalParams(np.array(raw["w_mu"]), np.array(raw["w_rho"])),
                biases=VariationalParams(np.array(raw["b_mu"]), np.array(raw["b_rho"])),
                activation=raw["activation"],
            )
        )
    if prior is None:
        prior = DiagonalGaussian([0.0], [math.sqrt(0.1)])
    return BayesianNetwork(layers=layers, prior=prior)


def build_golden_noise(spec: dict) -> np.ndarray:
    """The per-layer golden noise as one vector in the network's flat layout."""
    return np.concatenate([spec[name][part] for name in ("layer0", "layer1") for part in ("w", "b")])


@pytest.fixture(scope="session")
def golden_forward_case():
    return json.loads((GOLDEN_DIR / "forward_2x3x2.json").read_text())


@pytest.fixture(scope="session")
def golden_nll_case():
    return json.loads((GOLDEN_DIR / "nll_2x3x2.json").read_text())
