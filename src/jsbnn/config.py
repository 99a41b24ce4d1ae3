"""Experiment configuration: JSON schema, validation, canonical serialization.

The schema (all keys lower-case; unknown keys rejected):

{
  "network":   {"sizes": [2,16,16,2], "activation": "relu",
                "prior_mu": 0.0, "prior_sigma_sq": 0.1, "init_seed": 1},
  "dataset":   {"kind": "synthetic", "n_per_class": 1000,
                "centers": [[0.3,0.3],[0.7,0.7]], "spread": 0.08,
                "bias_ratio": 2.52, "noise_mean": 0.0, "noise_sigma": 0.0,
                "split_fractions": [0.6,0.2,0.2], "seed": 7}
            or {"kind": "csv", "path": "data.csv", "n_features": 2,
                "n_classes": 2, "noise_mean": 0.0, "noise_sigma": 0.0,
                "split_fractions": [0.6,0.2,0.2], "seed": 7},
  "loss":      {"kind": "kl|jsg_closed|jsg_mc|jsa_mc", "alpha": 0.0,
                "lambda": 1.0, "mc_samples": 1},
  "optimizer": {"learning_rate": 0.05, "schedule": [[4,0.1]],
                "momentum": 0.0, "batch_size": 32},
  "epochs": 50, "early_stop_patience": 5, "eval_samples": 32,
  "output_dir": "out", "seed": 123
}

Datasets are built as: generate/load -> min-max normalize -> stratified split ->
add per-split Gaussian noise (train, validation, and test alike).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .data import CsvSchema, Dataset, NoiseSpec, add_noise, load_csv, minmax_normalize, split, synth_clusters
from .divergence import DivergenceConfig
from .errors import ConfigError
from .gaussian import DiagonalGaussian
from .loss import LOSS_KINDS
from .network import BayesianNetwork
from .train import OptimizerState

__all__ = ["ExperimentConfig", "parse_config", "load_config", "config_hash"]


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: missing required field")
    return section[key]


def _check_nonnegative(value, where: str):
    try:
        ok = math.isfinite(value) and value >= 0
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        ok = False
    if not ok:
        raise ConfigError(f"{where}: must be a finite number >= 0")


def _check_known(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the module docstring for the schema."""

    network: dict
    dataset: dict
    loss: dict
    optimizer: dict
    epochs: int
    early_stop_patience: int
    eval_samples: int
    output_dir: str
    seed: int

    # --- builders ---------------------------------------------------------

    def divergence_config(self) -> DivergenceConfig:
        return DivergenceConfig(
            alpha=self.loss["alpha"],
            lam=self.loss["lambda"],
            mc_samples=self.loss["mc_samples"],
            seed=self.seed,
        )

    def optimizer_state(self) -> OptimizerState:
        return OptimizerState(
            learning_rate=self.optimizer["learning_rate"],
            schedule=tuple(tuple(e) for e in self.optimizer["schedule"]),
            momentum=self.optimizer["momentum"],
        )

    def build_network(self) -> BayesianNetwork:
        prior = DiagonalGaussian(
            [self.network["prior_mu"]], [math.sqrt(self.network["prior_sigma_sq"])]
        )
        return BayesianNetwork.initialize(
            self.network["sizes"], prior, self.network["init_seed"],
            hidden_activation=self.network["activation"],
        )

    def build_dataset(self) -> Dataset:
        d = self.dataset
        if d["kind"] == "synthetic":
            ds = synth_clusters(
                d["n_per_class"], d["centers"], d["spread"], d["bias_ratio"], d["seed"]
            )
        else:
            try:
                ds = load_csv(d["path"], CsvSchema(n_features=d["n_features"], n_classes=d["n_classes"]))
            except ValueError as err:
                raise ConfigError(f"dataset.path: {err}") from None
        ds = Dataset(minmax_normalize(ds.features), ds.labels)
        ds = split(ds, d["split_fractions"], seed=d["seed"])
        spec = NoiseSpec(mean=d["noise_mean"], sigma=d["noise_sigma"], seed=d["seed"])
        return add_noise(ds, spec)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            mean=self.dataset["noise_mean"], sigma=self.dataset["noise_sigma"],
            seed=self.dataset["seed"],
        )

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "network": dict(self.network),
            "dataset": dict(self.dataset),
            "loss": dict(self.loss),
            "optimizer": dict(self.optimizer),
            "epochs": self.epochs,
            "early_stop_patience": self.early_stop_patience,
            "eval_samples": self.eval_samples,
            "output_dir": self.output_dir,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def parse_config(doc: dict, overrides: dict = None, check_paths: bool = True) -> ExperimentConfig:
    """Validate a raw config dict; `overrides` (flag values) replace file values.

    Raises ConfigError with the offending field path on any problem.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)
    overrides = dict(overrides or {})
    _check_known(
        doc,
        ("network", "dataset", "loss", "optimizer", "epochs", "early_stop_patience",
         "eval_samples", "output_dir", "seed"),
        "config",
    )

    # ---- network ----
    net = dict(doc.get("network", {}))
    _check_known(net, ("sizes", "activation", "prior_mu", "prior_sigma_sq", "init_seed"), "network")
    net.setdefault("sizes", [2, 16, 16, 2])
    net.setdefault("activation", "relu")
    net.setdefault("prior_mu", 0.0)
    net.setdefault("prior_sigma_sq", 0.1)
    net.setdefault("init_seed", 0)
    sizes = net["sizes"]
    if (not isinstance(sizes, list) or len(sizes) < 2
            or any((not isinstance(s, int)) or s < 1 for s in sizes)):
        raise ConfigError("network.sizes: must be a list of >= 2 positive integers")
    if net["activation"] not in ("relu", "identity"):
        raise ConfigError("network.activation: must be 'relu' or 'identity'")
    if net["prior_sigma_sq"] <= 0:
        raise ConfigError("network.prior_sigma_sq: must be > 0")

    # ---- dataset ----
    ds = dict(_need(doc, "dataset", "config"))
    kind = _need(ds, "kind", "dataset")
    common = ("kind", "noise_mean", "noise_sigma", "split_fractions", "seed")
    ds.setdefault("noise_mean", 0.0)
    ds.setdefault("noise_sigma", 0.0)
    ds.setdefault("split_fractions", [0.6, 0.2, 0.2])
    ds.setdefault("seed", 0)
    if kind == "synthetic":
        _check_known(ds, common + ("n_per_class", "centers", "spread", "bias_ratio"), "dataset")
        ds.setdefault("bias_ratio", 1.0)
        for key in ("n_per_class", "centers", "spread"):
            _need(ds, key, "dataset")
        if ds["n_per_class"] < 1:
            raise ConfigError("dataset.n_per_class: must be >= 1")
        if ds["bias_ratio"] <= 0:
            raise ConfigError("dataset.bias_ratio: must be > 0")
        if ds["spread"] <= 0:
            raise ConfigError("dataset.spread: must be > 0")
    elif kind == "csv":
        _check_known(ds, common + ("path", "n_features", "n_classes"), "dataset")
        for key in ("path", "n_features", "n_classes"):
            _need(ds, key, "dataset")
        if check_paths and not Path(ds["path"]).exists():
            raise ConfigError(f"dataset.path: {ds['path']} does not exist")
    else:
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")
    _check_nonnegative(ds["noise_sigma"], "dataset.noise_sigma")
    fr = ds["split_fractions"]
    if not isinstance(fr, list) or len(fr) != 3 or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError("dataset.split_fractions: must be three fractions summing to 1")

    # ---- loss ----
    loss = dict(_need(doc, "loss", "config"))
    _check_known(loss, ("kind", "alpha", "lambda", "mc_samples"), "loss")
    loss.setdefault("alpha", 0.0)
    loss.setdefault("lambda", 1.0)
    loss.setdefault("mc_samples", 1)
    for key, flag in (("kind", "loss"), ("alpha", "alpha"), ("lambda", "lambda")):
        if flag in overrides and overrides[flag] is not None:
            loss[key] = overrides[flag]
    if loss.get("kind") not in LOSS_KINDS:
        raise ConfigError(f"loss.kind: must be one of {LOSS_KINDS}")
    if not 0.0 <= loss["alpha"] <= 1.0:
        raise ConfigError("loss.alpha: must lie in [0, 1]")
    _check_nonnegative(loss["lambda"], "loss.lambda")
    if loss["mc_samples"] < 1:
        raise ConfigError("loss.mc_samples: must be >= 1")

    # ---- optimizer ----
    opt = dict(_need(doc, "optimizer", "config"))
    _check_known(opt, ("learning_rate", "schedule", "momentum", "batch_size"), "optimizer")
    opt.setdefault("schedule", [])
    opt.setdefault("momentum", 0.0)
    opt.setdefault("batch_size", 32)
    if "lr" in overrides and overrides["lr"] is not None:
        opt["learning_rate"] = overrides["lr"]
    _check_nonnegative(_need(opt, "learning_rate", "optimizer"), "optimizer.learning_rate")
    if opt["batch_size"] < 1:
        raise ConfigError("optimizer.batch_size: must be >= 1")
    for entry in opt["schedule"]:
        if len(entry) != 2 or entry[1] <= 0:
            raise ConfigError("optimizer.schedule: entries must be [epoch, positive multiplier]")

    # ---- scalars ----
    epochs = overrides.get("epochs") or doc.get("epochs")
    if epochs is None or epochs < 1:
        raise ConfigError("epochs: must be >= 1")
    patience = doc.get("early_stop_patience", 5)
    if patience is not None and patience < 1:
        raise ConfigError("early_stop_patience: must be >= 1 (or null to disable)")
    eval_samples = doc.get("eval_samples", 32)
    if eval_samples < 1:
        raise ConfigError("eval_samples: must be >= 1")
    output_dir = overrides.get("output_dir") or doc.get("output_dir", "out")
    seed = overrides.get("seed") if overrides.get("seed") is not None else doc.get("seed")
    if seed is None:
        raise ConfigError("seed: required (pass --seed or set it in the config)")
    if not 0 <= int(seed) < 2**64:
        raise ConfigError("seed: must fit in an unsigned 64-bit integer")

    return ExperimentConfig(
        network=net, dataset=ds, loss=loss, optimizer=opt,
        epochs=int(epochs), early_stop_patience=patience,
        eval_samples=int(eval_samples), output_dir=str(output_dir), seed=int(seed),
    )


def load_config(path, overrides: dict = None) -> ExperimentConfig:
    """Read and validate a config JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    return parse_config(doc, overrides)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the canonical config JSON."""
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]
