"""Every malformed config field or command-line flag exits 2 with a one-line reason.

The config cases are generated from the field table (`jsbnn.config.FIELDS` and
`DATASET_FIELDS`): each field, and the first entry of each list field, gets
NaN, inf, a negative, a fraction, a string, a bool and 10**400 wherever the
field's check refuses the value. Two hand-written tables add the cross-field
config cases and the flag cases. Each case runs `jsbnn.cli.main` in-process
with warnings turned into errors, so a traceback or a numpy RuntimeWarning
fails the test. The caps on draws, data set size and predictive samples are
tested only with values that validation refuses before anything is allocated.
"""

import copy
import json
import math
import warnings
from pathlib import Path

import pytest

from jsbnn.cli import main
from jsbnn.config import DATASET_FIELDS, FIELDS

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "experiment_config.json"
BAD_VALUES = {"nan": math.nan, "inf": math.inf, "negative": -1, "fraction": 2.5, "string": "x",
              "bool": True, "huge": 10**400}
CSV_TEXT = "f0,f1,label\n" + "".join(f"{i / 40},{1 - i / 40},{i % 2}\n" for i in range(40))


def base_doc(kind: str, tmp_path: Path = Path(".")) -> dict:
    """The demo config at 1 epoch (or its csv variant), writing under `tmp_path`."""
    doc = json.loads(DEMO_CONFIG.read_text())
    doc["epochs"] = 1
    doc["output_dir"] = str(tmp_path / "out")
    doc["optimizer"]["schedule"] = [[1, 0.5]]  # so that the schedule has an entry to mutate
    if kind == "csv":
        doc["dataset"] = {"kind": "csv", "path": str(tmp_path / "data.csv"), "n_features": 2, "n_classes": 2,
                          "noise_sigma": 0.0, "split_fractions": [0.6, 0.2, 0.2], "seed": 7}
    return doc


def get(doc: dict, path: str):
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def put(doc: dict, path: str, value) -> dict:
    section, _, key = path.rpartition(".")
    (doc[section] if section else doc)[key] = value
    return doc


def generated_cases():
    for kind, fields in (("synthetic", FIELDS + DATASET_FIELDS["synthetic"]), ("csv", DATASET_FIELDS["csv"])):
        for path, check, _ in fields:
            current = get(base_doc(kind), path)
            for label, bad in BAD_VALUES.items():
                mutants = [(path, bad)]
                if isinstance(current, list) and current:  # the first leaf of a list field
                    leaf = copy.deepcopy(current)
                    inner = leaf
                    while isinstance(inner[0], list):
                        inner = inner[0]
                    inner[0] = bad
                    mutants.append((f"{path}[0]", leaf))
                for case_id, value in mutants:
                    if not check.ok(value):
                        yield pytest.param(kind, path, value, id=f"{case_id}={label}")


def run_cli(argv, capsys):
    """Exit code and stderr of one in-process command; any warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


def write_config(tmp_path, doc) -> str:
    (tmp_path / "data.csv").write_text(CSV_TEXT)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    return str(tmp_path / "cfg.json")


def assert_config_error(code, err, field):
    assert code == 2
    assert err.startswith(f"config error: {field}:") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind,path,value", generated_cases())
def test_generated_field_mutation_exits_2(tmp_path, capsys, kind, path, value):
    doc = base_doc(kind, tmp_path)
    if path == "seed":  # the master seed comes from the mandatory --seed flag
        code, err = run_cli(["train", "--config", write_config(tmp_path, doc), "--seed", str(value)], capsys)
        assert code == 2
        assert err.splitlines()[-1].startswith("jsbnn train: error: argument --seed"), err
        return
    cfg = write_config(tmp_path, put(doc, path, value))
    code, err = run_cli(["train", "--config", cfg, "--seed", "3"], capsys)
    assert_config_error(code, err, path)


LISTED_CONFIG_CASES = [  # (field, value[, the field the error names])
    ("network.sizes", [2, 4, 1]),  # one output for two classes
    ("network.sizes", [3, 4, 2]),  # three inputs for two features
    ("network.sizes", [2, 4, 3]),
    ("network.sizes", [2, 10**9, 2], "loss.mc_samples"),  # over the draw cap, refused before allocating
    ("network.prior_sigma_sq", math.nan),
    ("network.prior_sigma_sq", math.inf),
    ("network.prior_mu", math.nan),
    ("network.prior_mu", "0"),
    ("network.init_seed", -1),
    ("network.init_seed", 1.5),
    ("dataset.split_fractions", [1.2, -0.1, -0.1]),
    ("dataset.split_fractions", [0.5, 0.2, 0.2]),
    ("dataset.split_fractions", [0.0, 0.5, 0.5]),  # an empty training split
    ("dataset.split_fractions", [0.8, 0.0, 0.2]),  # an empty validation split
    ("dataset.split_fractions", [0.999, 0.0, 0.001]),
    ("dataset.centers", [[0.25, 0.25]]),  # one class
    ("dataset.centers", [[0.25, 0.25], [0.75]]),  # ragged
    ("dataset.n_per_class", 2.5),
    # just over the cap on rows x widest layer for the demo net: 595782 x (1 + 2.52) x 16 > 2**25
    ("dataset.n_per_class", 595782),
    ("dataset.n_per_class", 2**62),
    ("dataset.seed", -1),
    ("dataset.bias_ratio", math.nan),
    ("dataset.bias_ratio", "2"),
    ("dataset.spread", math.nan),
    ("dataset.noise_mean", math.nan),
    ("optimizer.batch_size", 2.5),
    ("optimizer.momentum", 1.0),
    ("optimizer.momentum", -0.5),
    ("epochs", "5"),
    ("epochs", 2.5),
    ("epochs", 5.0),
    ("early_stop_patience", 1.5),
    ("eval_samples", 2**20 + 1),  # just over the cap on predictive samples
    ("eval_samples", 2**40),
    ("loss.alpha", "0.5"),
    ("loss.mc_samples", 10**12),
    ("loss.mc_samples", 2.5),
    ("loss.mc_samples", 2**25 // 354 + 1),  # just over the cap on mc_samples x P for the demo net
    ("network", [1, 2]),
]


@pytest.mark.parametrize("case", LISTED_CONFIG_CASES,
                         ids=[f"{c[0]}={c[1]!r}"[:40] for c in LISTED_CONFIG_CASES])
def test_listed_config_case_exits_2(tmp_path, capsys, case):
    path, value, field = (case + (case[0],))[:3]
    doc = put(base_doc("synthetic", tmp_path), path, value)
    code, err = run_cli(["train", "--config", write_config(tmp_path, doc), "--seed", "3"], capsys)
    assert_config_error(code, err, field)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    doc = base_doc("synthetic", out)
    (out / "cfg.json").write_text(json.dumps(doc))
    assert main(["train", "--config", str(out / "cfg.json"), "--seed", "3"]) == 0
    return str(out / "cfg.json"), str(out / "out" / "checkpoint.json")


CLI_CASES = [  # each ended in a traceback or a wrong exit code before the flag types
    "eval --config {cfg} --checkpoint {ckpt} --seed 3 --n-samples 0",
    "eval --config {cfg} --checkpoint {ckpt} --seed 3 --n-samples 1e3",
    "eval --config {cfg} --checkpoint {ckpt} --seed 3 --n-samples 1048577",  # over the eval_samples cap
    "mc-convergence --samples a,b",
    "mc-convergence --samples 0,10",
    "mc-convergence --samples 10,1000000000000",  # over the draw cap, refused before any allocation
    "mc-convergence --q-sigma-sq 0",
    "mc-convergence --q-mu nan",
    "mc-convergence --alpha 1.5",
    "mc-convergence --seeds 0",
    "divergence-curve --mu-steps 0",
    "divergence-curve --mu-steps 2",
    "divergence-curve --alpha 2",
    "divergence-curve --mc-samples 0",
    "divergence-curve --q-sigma-sq nan",
    "divergence-curve --seed -1",
    "verify-theorems --seed -1",
    "verify-theorems --trials 0",
    "search --config {cfg} --seed 3 --alpha-range x",
    "search --config {cfg} --seed 3 --alpha-range 0.8,0.2",
    "search --config {cfg} --seed 3 --lambda-choices ",
    "search --config {cfg} --seed 3 --lr-choices 0.1,nan",
    "search --config {cfg} --seed 3 --trials 0",
    "train --config {cfg} --seed 3 --epochs 0",
    "train --config {cfg} --seed 3 --output-dir ",
    "train --config {cfg} --seed 18446744073709551616",
    "train --config {cfg} --seed 3 --lr inf",
    "train --config {cfg} --seed 3 --lambda -1",
]


@pytest.mark.parametrize("line", CLI_CASES)
def test_cli_case_exits_2(checkpoint, tmp_path, capsys, line):
    cfg, ckpt = checkpoint
    argv = line.format(cfg=cfg, ckpt=ckpt).split(" ")
    if argv[0] in ("mc-convergence", "divergence-curve"):
        argv += ["--output", str(tmp_path / "out.csv")]
    code, err = run_cli(argv, capsys)
    assert code == 2
    assert err.splitlines()[0].startswith("usage: jsbnn")
    assert err.splitlines()[-1].startswith(f"jsbnn {argv[0]}: error: argument"), err
