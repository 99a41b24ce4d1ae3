"""Workload definitions and set-up shared by the benchmark runner and its set-up probe.

Every input the program sees is generated here from the demo config and the
workload seed: one experiment config per workload and, for `eval`, a
checkpoint trained during set-up. Nothing in this file times anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO_CONFIG = ROOT / "demos" / "experiment_config.json"
WORK = ROOT / ".bench_work"

EVAL_N_SAMPLES = 100
VERIFY_TRIALS = 1
# the eval checkpoint comes from a short jsg_closed run of the demo config
CHECKPOINT_EPOCHS = 5

# Training runs are shorter than the demo config's 40 epochs, so that a run of
# the benchmark completes enough rounds for a steady median; the cost per step
# does not depend on the epoch count. train-mc8 steps cost about 8 times more,
# so its runs get one epoch.
WORKLOADS = {
    "train-s1": {"kind": "train", "losses": ("kl", "jsg_closed", "jsg_mc", "jsa_mc"),
                 "mc_samples": 1, "epochs": 2},
    "train-mc8": {"kind": "train", "losses": ("jsg_mc", "jsa_mc"), "mc_samples": 8, "epochs": 1},
    "eval": {"kind": "eval"},
    "verify": {"kind": "verify"},
}


class CheckoutError(RuntimeError):
    """The checkout lacks the sources or demo config the benchmark builds from."""


def import_jsbnn():
    """Import `jsbnn.cli` from this checkout's `src`, never from an installed copy."""
    if not (SRC / "jsbnn" / "__init__.py").is_file() or not DEMO_CONFIG.is_file():
        raise CheckoutError(f"no jsbnn sources or demo config under {ROOT}")
    sys.path.insert(0, str(SRC))
    try:
        import jsbnn.cli  # noqa: F401  (registers the package in sys.modules)
    except ImportError as err:
        raise CheckoutError(f"cannot import jsbnn from {SRC}: {err}") from None
    origin = Path(sys.modules["jsbnn"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckoutError(f"imported jsbnn from {origin}, not from {SRC}")
    return sys.modules["jsbnn.cli"]


def workload_dir(workload: str) -> Path:
    return WORK / workload


def config_path(workload: str) -> Path:
    return workload_dir(workload) / "config.json"


def checkpoint_path(workload: str) -> Path:
    return workload_dir(workload) / "checkpoint" / "checkpoint.json"


def call_cli(cli, argv):
    """Run `jsbnn.cli.main(argv)` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def prepare(workload: str, seed: int) -> dict:
    """Generate the workload's config, dataset, network and checkpoint.

    Expects `import_jsbnn()` to have run. Returns facts the output checks
    need, such as the number of test rows.
    """
    spec = WORKLOADS[workload]
    wdir = workload_dir(workload)
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    info = {"workload": workload, "seed": seed}
    if spec["kind"] == "verify":
        return info

    doc = json.loads(DEMO_CONFIG.read_text())
    doc["epochs"] = spec.get("epochs", doc["epochs"])
    doc["loss"]["mc_samples"] = spec.get("mc_samples", doc["loss"]["mc_samples"])
    doc["output_dir"] = str(wdir / "out")
    config_path(workload).write_text(json.dumps(doc, indent=1))

    config = sys.modules["jsbnn.config"]
    cfg = config.load_config(config_path(workload), {"seed": seed})
    dataset = cfg.build_dataset()
    cfg.build_network()  # part of set-up only: each command builds its own
    sizes = doc["network"]["sizes"]
    info.update(
        train_rows=int(dataset.subset("train")[0].shape[0]),
        test_rows=int(dataset.subset("test")[0].shape[0]),
        n_params=sum(a * b + b for a, b in zip(sizes, sizes[1:])),
        mc_samples=int(doc["loss"]["mc_samples"]),
        epochs=int(doc["epochs"]),
        batch_size=int(doc["optimizer"]["batch_size"]),
        alpha=float(doc["loss"]["alpha"]),
        lam=float(doc["loss"]["lambda"]),
    )
    if spec["kind"] == "eval":
        rc, _, err = call_cli(sys.modules["jsbnn.cli"], [
            "train", "--config", str(config_path(workload)), "--seed", str(seed),
            "--epochs", str(CHECKPOINT_EPOCHS), "--output-dir", str(checkpoint_path(workload).parent),
        ])
        if rc != 0 or not checkpoint_path(workload).is_file():
            raise RuntimeError(f"set-up training for the eval checkpoint exited {rc}: {err.strip()}")
    return info
