"""The same-numbers harness (`tools/same_numbers.py`) finds every kind of difference.

The comparison runs on small hand-made output directories; one end-to-end run
compares the working tree with itself at 2 seeds per command set.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_numbers.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("same_numbers", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["same_numbers"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["same_numbers"]


def make_side(root: Path, exit_code=0, trace="1,0.5,0.1\n", extra=None) -> Path:
    results = {"train-s1/kl-0": {"exit": exit_code, "stdout": "trained\n", "stderr": ""}}
    (root / "train-s1" / "kl-0").mkdir(parents=True)
    (root / "results.json").write_text(json.dumps({"results": results}))
    (root / "train-s1" / "kl-0" / "trace.csv").write_text("# provenance: seed=0\nepoch,val,lr\n" + trace)
    for name, text in (extra or {}).items():
        (root / "train-s1" / "kl-0" / name).write_text(text)
    return root


def test_identical_outputs(harness, tmp_path):
    report = harness.compare(make_side(tmp_path / "a"), make_side(tmp_path / "b"))
    assert harness.identical(report)
    assert report["train-s1"]["commands"] == 1 and report["train-s1"]["files"] == 1


def test_one_ulp_difference_is_reported_with_its_size(harness, tmp_path):
    report = harness.compare(make_side(tmp_path / "a"),
                             make_side(tmp_path / "b", trace="1,0.5000000000000001,0.1\n"))
    rep = report["train-s1"]
    assert not harness.identical(report)
    assert rep["differ"] == ["train-s1/kl-0/trace.csv"]
    assert rep["max_abs"] == pytest.approx(1.1102230246251565e-16)
    assert rep["max_rel"] == pytest.approx(2.220446049250313e-16)


def test_missing_file_is_reported(harness, tmp_path):
    report = harness.compare(make_side(tmp_path / "a", extra={"steps.csv": "step\n"}),
                             make_side(tmp_path / "b"))
    assert report["train-s1"]["missing"] == ["train-s1/kl-0/steps.csv"]
    assert not harness.identical(report)


def test_different_exit_code_is_reported(harness, tmp_path):
    report = harness.compare(make_side(tmp_path / "a"), make_side(tmp_path / "b", exit_code=3))
    assert report["train-s1"]["exit_mismatches"] == ["train-s1/kl-0"]
    assert not harness.identical(report)


def test_self_comparison_at_two_seeds(harness, capsys):
    assert harness.main(["--parent-src", str(TOOL.parent.parent), "--seeds", "2"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["identical"] is True
    assert summary["commands"] == 2 * 4 + 2 * 2 + 2 * 2 + 1
    assert {name: s["differ"] for name, s in summary["sets"].items()} == {
        "train-s1": 0, "train-mc8": 0, "eval": 0, "verify": 0}
