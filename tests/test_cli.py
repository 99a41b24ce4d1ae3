"""End-to-end CLI tests: commands, artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsbnn
from jsbnn.cli import main, run_theorem_suites
from jsbnn.config import config_hash, load_config, parse_config
from jsbnn.errors import ConfigError


def write_config(tmp_path, **updates):
    doc = {
        "network": {"sizes": [2, 8, 2], "init_seed": 1},
        "dataset": {
            "kind": "synthetic", "n_per_class": 60,
            "centers": [[0.2, 0.2], [0.8, 0.8]], "spread": 0.08,
            "bias_ratio": 1.0, "noise_sigma": 0.0,
            "split_fractions": [0.6, 0.2, 0.2], "seed": 7,
        },
        "loss": {"kind": "jsg_closed", "alpha": 0.5, "lambda": 1.0, "mc_samples": 1},
        "optimizer": {"learning_rate": 0.1, "batch_size": 16},
        "epochs": 8,
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in updates.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_round_trip_is_semantically_identical(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, {"seed": 5})
        again = parse_config(json.loads(cfg.to_json()))
        assert cfg.to_dict() == again.to_dict()
        assert config_hash(cfg) == config_hash(again)

    def test_seed_required(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_flags_override_file_values(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, {"seed": 5, "alpha": 0.9, "lr": 0.01, "epochs": 3})
        assert cfg.loss["alpha"] == 0.9
        assert cfg.optimizer["learning_rate"] == 0.01
        assert cfg.epochs == 3

    def test_field_path_in_errors(self, tmp_path):
        path = write_config(tmp_path, loss={"alpha": 2.0})
        with pytest.raises(ConfigError, match="loss.alpha"):
            load_config(path, {"seed": 5})

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path, network={"sizes": [2, 2], "typo_field": 1})
        with pytest.raises(ConfigError, match="typo_field"):
            load_config(path, {"seed": 5})

    def test_missing_csv_path_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            dataset={"kind": "csv", "path": str(tmp_path / "nope.csv"),
                     "n_features": 2, "n_classes": 2, "seed": 1,
                     "noise_sigma": 0.0, "split_fractions": [0.6, 0.2, 0.2]},
        )
        # remove synthetic-only keys the updater left behind
        doc = json.loads(path.read_text())
        for key in ("n_per_class", "centers", "spread", "bias_ratio"):
            doc["dataset"].pop(key, None)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path, {"seed": 5})

    def test_dataset_pipeline_deterministic(self, tmp_path):
        path = write_config(tmp_path, dataset={"noise_sigma": 0.3})
        cfg = load_config(path, {"seed": 5})
        a, b = cfg.build_dataset(), cfg.build_dataset()
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.split_tags, b.split_tags)


class TestTrainCommand:
    def test_writes_artifacts_and_succeeds(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--seed", "3"]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "checkpoint.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "config.json").exists()
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# provenance: tool=jsbnn")
        assert lines[1] == "epoch,train_acc,val_acc,divergence_term,nll_term,total,lr"

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        main(["train", "--config", str(path), "--seed", "3", "--step-csv"])
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("trace.csv", "checkpoint.json", "steps.csv")
        }
        main(["train", "--config", str(path), "--seed", "3", "--step-csv"])
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_lr_zero_flat_trace(self, tmp_path):
        path = write_config(tmp_path, epochs=3)
        assert main(["train", "--config", str(path), "--seed", "3", "--lr", "0"]) == 0
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[2:]
        divs = {row.split(",")[3] for row in rows}
        assert len(rows) == 3
        assert len(divs) == 1  # nothing moved

    def test_numeric_abort_exit_code(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["train", "--config", str(path), "--seed", "3", "--lr", "1e18"])
        assert code == 3
        # a last-good checkpoint still lands on disk
        assert (tmp_path / "out" / "checkpoint.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, loss={"alpha": 7.0})
        assert main(["train", "--config", str(path), "--seed", "3"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"), "--seed", "3"]) == 2

    @pytest.mark.parametrize("body", [
        "x0,x1,label\n0.1,0.2,0\n",  # header does not match the schema
        "f0,f1,label\n0.1,abc,0\n",  # non-numeric feature cell
    ])
    def test_malformed_csv_is_config_error(self, tmp_path, capsys, body):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(body)
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["dataset"] = {"kind": "csv", "path": str(csv_path), "n_features": 2,
                          "n_classes": 2, "seed": 1, "noise_sigma": 0.0,
                          "split_fractions": [0.6, 0.2, 0.2]}
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--seed", "3"]) == 2
        assert "config error:" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path):
        path = write_config(tmp_path)
        main(["train", "--config", str(path), "--seed", "3"])
        ck = tmp_path / "out" / "checkpoint.json"
        assert main(["eval", "--checkpoint", str(ck), "--config", str(path),
                     "--seed", "3", "--n-samples", "50"]) == 0
        report = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert report["accuracy"] == 1.0  # cleanly separable fixture
        assert report["auc"] == 1.0
        assert (tmp_path / "out" / "roc.csv").exists()

    def test_missing_checkpoint(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                     "--config", str(path), "--seed", "3"]) == 2

    @pytest.mark.parametrize("key", ["sizes", "layers", "prior"])
    def test_checkpoint_missing_key_is_config_error(self, tmp_path, capsys, key):
        path = write_config(tmp_path, epochs=1)
        main(["train", "--config", str(path), "--seed", "3"])
        ck = tmp_path / "out" / "checkpoint.json"
        doc = json.loads(ck.read_text())
        del doc[key]
        ck.write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(ck), "--config", str(path),
                     "--seed", "3"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_shape_mismatch(self, tmp_path):
        path = write_config(tmp_path)
        main(["train", "--config", str(path), "--seed", "3"])
        ck = tmp_path / "out" / "checkpoint.json"
        path3 = write_config(
            tmp_path,
            dataset={"centers": [[0.2, 0.2, 0.0], [0.8, 0.8, 0.0]]},
        )
        assert main(["eval", "--checkpoint", str(ck), "--config", str(path3),
                     "--seed", "3"]) == 2

    def test_more_predictive_samples_reduce_accuracy_variance(self, tmp_path):
        # both sample budgets yield valid reports; the 100-sample accuracy
        # fluctuates less across evaluation seeds than the 1-sample one
        from jsbnn.config import load_config
        from jsbnn.metrics import accuracy
        from jsbnn.network import load_checkpoint, predictive

        path = write_config(tmp_path, dataset={"noise_sigma": 0.6}, epochs=10)
        main(["train", "--config", str(path), "--seed", "3"])
        net = load_checkpoint(tmp_path / "out" / "checkpoint.json")
        ds = load_config(path, {"seed": 3}).build_dataset()
        x_test, y_test = ds.subset("test")
        accs = {n: [accuracy(predictive(net, x_test, n, [s, n]), y_test) for s in range(20)]
                for n in (1, 100)}
        assert np.var(accs[100]) < np.var(accs[1])


class TestAnalysisCommands:
    def test_divergence_curve_reference_row(self, tmp_path):
        out = tmp_path / "dc.csv"
        assert main(["divergence-curve", "--output", str(out),
                     "--mc-samples", "500", "--mu-steps", "5"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "mu,kl,jsg_closed,jsa_mc_scaled"
        mid = dict(zip(lines[1].split(","), lines[4].split(",")))
        assert float(mid["mu"]) == 0.0
        assert float(mid["kl"]) == pytest.approx(0.7012925465, rel=1e-9)

    def test_mc_convergence_five_percent_at_600(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["mc-convergence", "--output", str(out), "--seeds", "20"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        errors = {int(n): float(e) for n, e, _ in rows}
        assert errors[600] <= 0.05
        closed = {float(c) for _, _, c in rows}
        assert closed == {3.125}  # closed-form column constant across n

    def test_mc_convergence_rejects_unsorted_grid(self, tmp_path):
        assert main(["mc-convergence", "--samples", "100,10",
                     "--output", str(tmp_path / "x.csv")]) == 2

    def test_mc_convergence_single_sample_row_is_finite(self, tmp_path):
        out = tmp_path / "mc1.csv"
        assert main(["mc-convergence", "--samples", "1,10", "--seeds", "5",
                     "--output", str(out)]) == 0
        first = out.read_text().splitlines()[2].split(",")
        assert first[0] == "1"
        assert np.isfinite(float(first[1]))

    def test_verify_theorems_passes(self):
        assert main(["verify-theorems", "--trials", "15", "--seed", "1"]) == 0

    def test_verify_theorems_injected_bug_fails(self):
        assert main(["verify-theorems", "--trials", "5", "--seed", "1", "--inject-bug"]) == 4

    def test_verify_single_trial(self):
        assert main(["verify-theorems", "--trials", "1", "--seed", "2"]) == 0

    def test_suite_details_report_offending_pair(self):
        results = run_theorem_suites(3, 1, inject_bug=True)
        for name, passed, detail in results:
            assert not passed
            assert "violation pair=" in detail


class TestSearchCommand:
    def test_search_writes_best_and_table(self, tmp_path):
        path = write_config(tmp_path, epochs=4)
        assert main(["search", "--config", str(path), "--seed", "3", "--trials", "3",
                     "--alpha-range", "0.2,0.8", "--lambda-choices", "1.0",
                     "--lr-choices", "0.1,0.05"]) == 0
        best = json.loads((tmp_path / "out" / "best.json").read_text())
        assert 0.2 <= best["alpha"] <= 0.8
        rows = (tmp_path / "out" / "search.csv").read_text().splitlines()
        assert rows[1] == "trial,alpha,lambda,lr,val_acc,diverged"
        assert len(rows) == 2 + 3

    def test_search_deterministic(self, tmp_path):
        path = write_config(tmp_path, epochs=3)
        main(["search", "--config", str(path), "--seed", "9", "--trials", "2"])
        first = (tmp_path / "out" / "best.json").read_bytes()
        main(["search", "--config", str(path), "--seed", "9", "--trials", "2"])
        assert (tmp_path / "out" / "best.json").read_bytes() == first

    def test_search_diverging_choice_avoided(self, tmp_path):
        path = write_config(tmp_path, epochs=3)
        assert main(["search", "--config", str(path), "--seed", "3", "--trials", "6",
                     "--lr-choices", "0.1,1e18"]) == 0
        best = json.loads((tmp_path / "out" / "best.json").read_text())
        assert best["lr"] == 0.1


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs over a second and tens of MB at import; the library
    # needs only scipy.special (autodiff's expit), the tests the rest
    env = dict(os.environ, PYTHONPATH=str(Path(jsbnn.__file__).resolve().parents[1]))
    code = "import sys, jsbnn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
