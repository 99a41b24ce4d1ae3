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

`FIELDS` and `DATASET_FIELDS` give each field's type, range and default (none:
required); values pass through unchanged. `parse_config` checks across fields:
`sizes` against the data's feature and class counts, the centers' shape, the
split sum, the `MAX_DATASET_FLOATS` cap on a synthetic data set's rows x
widest layer and the `MAX_DRAW_FLOATS` cap on the training draws.

Datasets are built as: generate/load -> min-max normalize -> stratified split ->
add per-split Gaussian noise (train, validation, and test alike).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

from .data import CsvSchema, Dataset, NoiseSpec, add_noise, load_csv, minmax_normalize, split, synth_clusters
from .divergence import DivergenceConfig
from .errors import ConfigError
from .gaussian import DiagonalGaussian
from .loss import LOSS_KINDS
from .network import BayesianNetwork
from .train import OptimizerState

__all__ = ["ExperimentConfig", "parse_config", "load_config", "config_hash"]

# One training step holds arrays of mc_samples x P floats (the weight draws) and
# of mc_samples x batch_size x width floats (the activations): 256 MiB each here.
MAX_DRAW_FLOATS = 2**25
# A synthetic data set's rows x widest layer bounds its features array (rows x
# features) and each predictive sample's activations (rows x width); the other cap
# bounds the samples of each predictive pass (validation each epoch, eval).
MAX_DATASET_FLOATS = 2**25
MAX_EVAL_SAMPLES = 2**20


class Check(NamedTuple):
    """A field type: `ok(value)` tells whether a value is valid, `text` what it must be."""

    text: str
    ok: Callable[[object], bool]


def _bound(text: str):
    base, _, power = text.partition("**")
    return int(base) ** int(power) if power else float(text)


def number(interval: str = "(-inf, inf)", integer: bool = False) -> Check:
    """A JSON number in `interval`, such as '[1, 2**63)': finite, never a bool, an int if `integer`."""
    lo, hi = (_bound(t) for t in interval[1:-1].split(", "))

    def ok(v):
        try:
            return (isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
                    and (integer or math.isfinite(v)) and (lo <= v if interval[0] == "[" else lo < v)
                    and (v <= hi if interval[-1] == "]" else v < hi))
        except OverflowError:  # an integer beyond float range where a float is expected
            return False

    kind = "an integer" if integer else "a finite number"
    return Check(kind + (f" in {interval}" if interval != "(-inf, inf)" else ""), ok)


def choice(*options: str) -> Check:
    return Check(f"one of {options}", lambda v: isinstance(v, str) and v in options)


def listof(item: Check, min_len: int = 1, exact: bool = False, ordered: bool = False) -> Check:
    """A list of `min_len` (or more, unless `exact`) items; `ordered` means non-decreasing."""
    size = str(min_len) if exact else f"{min_len} or more"
    return Check(
        f"a {'non-decreasing ' * ordered}list of {size} items, each {item.text}",
        lambda v: (isinstance(v, list) and (len(v) == min_len if exact else len(v) >= min_len)
                   and all(map(item.ok, v)) and (not ordered or v == sorted(v))),
    )


def pair(first: Check, second: Check) -> Check:
    return Check(f"a list [{first.text}, {second.text}]",
                 lambda v: isinstance(v, list) and len(v) == 2 and first.ok(v[0]) and second.ok(v[1]))


def optional(check: Check) -> Check:
    return Check(f"{check.text}, or null", lambda v: v is None or check.ok(v))


COUNT = number("[1, 2**63)", integer=True)
EVAL_SAMPLES = number(f"[1, {MAX_EVAL_SAMPLES}]", integer=True)
SEED = number("[0, 2**64)", integer=True)
FINITE = number()
POSITIVE = number("(0, inf)")
NONNEGATIVE = number("[0, inf)")
ALPHA = number("[0, 1]")
TEXT = Check("a non-empty string", lambda v: isinstance(v, str) and v != "")
REQUIRED = object()  # the default of a field that has none

FIELDS = (  # (path, type and range, default)
    ("network.sizes", listof(COUNT, 2), [2, 16, 16, 2]),
    ("network.activation", choice("relu", "identity"), "relu"),
    ("network.prior_mu", FINITE, 0.0),
    ("network.prior_sigma_sq", POSITIVE, 0.1),
    ("network.init_seed", SEED, 0),
    ("dataset.kind", choice("synthetic", "csv"), REQUIRED),
    ("dataset.noise_mean", FINITE, 0.0),
    ("dataset.noise_sigma", NONNEGATIVE, 0.0),
    ("dataset.split_fractions", listof(number("[0, 1]"), 3, exact=True), [0.6, 0.2, 0.2]),
    ("dataset.seed", SEED, 0),
    ("loss.kind", choice(*LOSS_KINDS), REQUIRED),
    ("loss.alpha", ALPHA, 0.0),
    ("loss.lambda", NONNEGATIVE, 1.0),
    ("loss.mc_samples", COUNT, 1),
    ("optimizer.learning_rate", NONNEGATIVE, REQUIRED),
    ("optimizer.schedule", listof(pair(number("[0, 2**63)", integer=True), POSITIVE), 0), []),
    ("optimizer.momentum", number("[0, 1)"), 0.0),
    ("optimizer.batch_size", COUNT, 32),
    ("epochs", COUNT, REQUIRED),
    ("early_stop_patience", optional(COUNT), 5),
    ("eval_samples", EVAL_SAMPLES, 32),
    ("output_dir", TEXT, "out"),
    ("seed", SEED, REQUIRED),
)
DATASET_FIELDS = {  # the fields of each dataset kind
    "synthetic": (
        ("dataset.n_per_class", COUNT, REQUIRED),
        ("dataset.centers", listof(listof(FINITE), 2), REQUIRED),
        ("dataset.spread", POSITIVE, REQUIRED),
        ("dataset.bias_ratio", POSITIVE, 1.0),
    ),
    "csv": (
        ("dataset.path", TEXT, REQUIRED),
        ("dataset.n_features", COUNT, REQUIRED),
        ("dataset.n_classes", COUNT, REQUIRED),
    ),
}
# the field each override key (a CLI flag's name) replaces
OVERRIDES = {"seed": "seed", "epochs": "epochs", "loss": "loss.kind", "alpha": "loss.alpha",
             "lambda": "loss.lambda", "lr": "optimizer.learning_rate", "output_dir": "output_dir"}


@dataclasses.dataclass(frozen=True)
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
        return DivergenceConfig(alpha=self.loss["alpha"], lam=self.loss["lambda"],
                                mc_samples=self.loss["mc_samples"], seed=self.seed)

    def optimizer_state(self) -> OptimizerState:
        return OptimizerState(learning_rate=self.optimizer["learning_rate"],
                              schedule=tuple(tuple(e) for e in self.optimizer["schedule"]),
                              momentum=self.optimizer["momentum"])

    def build_network(self) -> BayesianNetwork:
        prior = DiagonalGaussian([self.network["prior_mu"]], [math.sqrt(self.network["prior_sigma_sq"])])
        return BayesianNetwork.initialize(
            self.network["sizes"], prior, self.network["init_seed"],
            hidden_activation=self.network["activation"],
        )

    def build_dataset(self) -> Dataset:
        d = self.dataset
        if d["kind"] == "synthetic":
            ds = synth_clusters(d["n_per_class"], d["centers"], d["spread"], d["bias_ratio"], d["seed"])
        else:
            try:
                ds = load_csv(d["path"], CsvSchema(n_features=d["n_features"], n_classes=d["n_classes"]))
            except (OSError, ValueError) as err:
                raise ConfigError(f"dataset.path: {err}") from None
        ds = Dataset(minmax_normalize(ds.features), ds.labels)
        ds = add_noise(split(ds, d["split_fractions"], seed=d["seed"]), self.noise_spec())
        for tag, name in (("train", "training"), ("validation", "validation")):
            if ds.subset(tag)[0].shape[0] == 0:
                raise ConfigError(f"dataset.split_fractions: the {name} split is empty")
        return ds

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            mean=self.dataset["noise_mean"], sigma=self.dataset["noise_sigma"],
            seed=self.dataset["seed"],
        )

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:  # not dataclasses.asdict: its deep copy costs 0.1 ms per call
        return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name, {}) if name else doc
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a JSON object")
    return section


def _walk(doc: dict, flags: dict, fields, out: dict) -> dict:
    """Check each field's flag, file or default value and store it in `out`."""
    for path, check, default in fields:
        section, _, key = path.rpartition(".")
        value = flags.get(path, _section(doc, section).get(key, default))
        if value is REQUIRED:
            raise ConfigError(f"{path}: missing required field")
        if not check.ok(value):
            raise ConfigError(f"{path}: must be {check.text}")
        (out.setdefault(section, {}) if section else out)[key] = copy.copy(value)  # no shared default
    return out


def parse_config(doc: dict, overrides: dict = None) -> ExperimentConfig:
    """Validate a raw config dict; `overrides` (flag values, None when unset) replace file values.

    Keys of `overrides` that are not in OVERRIDES are ignored. Raises
    ConfigError with the offending field path on any problem.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    flags = {OVERRIDES[k]: v for k, v in (overrides or {}).items() if k in OVERRIDES and v is not None}
    cfg = _walk(doc, flags, FIELDS, {})
    _walk(doc, flags, DATASET_FIELDS[cfg["dataset"]["kind"]], cfg)
    for section in [""] + [name for name, value in cfg.items() if isinstance(value, dict)]:
        unknown = set(_section(doc, section)) - set(cfg[section] if section else cfg)
        if unknown:
            raise ConfigError(f"{section or 'config'}: unknown fields {sorted(unknown)}")

    sizes, ds = cfg["network"]["sizes"], cfg["dataset"]
    if ds["kind"] == "synthetic":
        if len({len(c) for c in ds["centers"]}) > 1:
            raise ConfigError("dataset.centers: every center must have the same dimension")
        n_features, n_classes = len(ds["centers"][0]), len(ds["centers"])
    else:
        if not Path(ds["path"]).exists():
            raise ConfigError(f"dataset.path: {ds['path']} does not exist")
        n_features, n_classes = ds["n_features"], ds["n_classes"]
    if (sizes[0], sizes[-1]) != (n_features, n_classes):
        raise ConfigError(f"network.sizes: must start with the dataset's {n_features} features "
                          f"and end with its {n_classes} classes")
    if abs(sum(ds["split_fractions"]) - 1.0) > 1e-9:
        raise ConfigError("dataset.split_fractions: must be three fractions summing to 1")
    n_params = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
    widest = cfg["optimizer"]["batch_size"] * max(sizes)
    if cfg["loss"]["mc_samples"] * max(n_params, widest) > MAX_DRAW_FLOATS:
        raise ConfigError(f"loss.mc_samples: mc_samples x {n_params} parameters and mc_samples x "
                          f"batch_size x widest layer must stay within {MAX_DRAW_FLOATS} floats")
    # class 0 has round(n_per_class x bias_ratio) rows, every other class n_per_class
    rows = ds["n_per_class"] * (n_classes - 1 + ds["bias_ratio"]) if ds["kind"] == "synthetic" else 0
    if rows * max(sizes) > MAX_DATASET_FLOATS:
        raise ConfigError(f"dataset.n_per_class: the data set's rows x widest layer {max(sizes)} "
                          f"must stay within {MAX_DATASET_FLOATS} floats")
    return ExperimentConfig(**cfg)


def load_config(path, overrides: dict = None) -> ExperimentConfig:
    """Read and validate a config JSON file."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except ValueError as err:  # includes bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    return parse_config(doc, overrides)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the canonical config JSON."""
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]
