"""Same-numbers harness: run seeded jsbnn commands on a parent tree and on the
working tree, and compare every output.

    python tools/same_numbers.py --parent HEAD [--seeds N]
    python tools/same_numbers.py --parent-src DIR [--seeds N]

The parent is exported with `git archive REV` (local git only) or read from a
directory holding `src/jsbnn`; the change side is this checkout's `src`. Each
tree runs every command in one subprocess, in-process through `jsbnn.cli.main`,
with the same config files and output paths; the outputs are moved aside
between the trees. The command sets:

  train-s1   the demo config at 2 epochs and S=1: 120 seeds x 4 loss kinds, --step-csv
  train-mc8  the demo config at 1 epoch and S=8: 60 seeds x (jsg_mc, jsa_mc)
  eval       40 seeds: a 5-epoch checkpoint, then eval --n-samples 100
  verify     verify-theorems --trials 20

`--seeds N` caps every seed count at N. Per set it reports the exit codes,
first stderr lines and stdout that differ, the files that differ or exist on
one side only, and the largest absolute and relative difference between the
numbers of files that differ only in their numbers. The last line printed is
one JSON object. Exit code 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "demos" / "experiment_config.json"
SETS = {  # name: (full seed count, config edits)
    "train-s1": (120, {"epochs": 2, "mc_samples": 1}),
    "train-mc8": (60, {"epochs": 1, "mc_samples": 8}),
    "eval": (40, {}),
    "verify": (1, None),
}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a number as printed in CSV or JSON; the text around the numbers must agree
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|nan|-?Infinity|-?inf")

# Runs in each tree's subprocess: argv[1] is the tree's src, argv[2] the work directory.
WORKER = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy
import jsbnn.cli
work = sys.argv[2]
results = {}
for name, argv in json.load(open(os.path.join(work, "commands.json"))):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = jsbnn.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code, err = 1, io.StringIO(f"Traceback: {type(exc).__name__}: {exc}")
    results[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue().partition("\n")[0]}
blas = {k: os.environ.get(k) for k in %r}
with open(os.path.join(work, "out", "results.json"), "w") as fh:
    json.dump({"jsbnn": jsbnn.cli.__file__, "numpy": numpy.__version__, "blas": blas,
               "results": results}, fh, indent=1, sort_keys=True)
""" % (BLAS_VARS,)


def write_configs(work: Path) -> None:
    for name, (_, edits) in SETS.items():
        if edits is None:
            continue
        doc = json.loads(DEMO_CONFIG.read_text())
        doc["epochs"] = edits.get("epochs", doc["epochs"])
        doc["loss"]["mc_samples"] = edits.get("mc_samples", doc["loss"]["mc_samples"])
        doc["output_dir"] = str(work / "out" / name)
        (work / f"{name}.json").write_text(json.dumps(doc, indent=1))


def commands(work: Path, name: str, seeds) -> list:
    """(command name, argv) pairs of one set; outputs go under work/out/<set>/."""
    cfg, out = str(work / f"{name}.json"), work / "out" / name
    if name == "train-s1" or name == "train-mc8":
        kinds = ("kl", "jsg_closed", "jsg_mc", "jsa_mc") if name == "train-s1" else ("jsg_mc", "jsa_mc")
        extra = ["--step-csv"] if name == "train-s1" else []
        return [(f"{name}/{kind}-{s}", ["train", "--config", cfg, "--seed", str(s), "--loss", kind,
                                        "--output-dir", str(out / f"{kind}-{s}")] + extra)
                for s in seeds for kind in kinds]
    if name == "eval":
        cmds = []
        for s in seeds:
            ckpt = out / str(s) / "checkpoint"
            cmds.append((f"eval/{s}/train", ["train", "--config", cfg, "--seed", str(s), "--epochs", "5",
                                             "--output-dir", str(ckpt)]))
            cmds.append((f"eval/{s}", ["eval", "--checkpoint", str(ckpt / "checkpoint.json"), "--config", cfg,
                                       "--seed", str(s), "--n-samples", "100", "--output-dir", str(out / str(s))]))
        return cmds
    return [(f"verify/{s}", ["verify-theorems", "--trials", "20", "--seed", str(s)]) for s in seeds]


def run_tree(src: Path, work: Path, cmds: list, dest: Path) -> float:
    """Run every command against the jsbnn in `src`; move the outputs to `dest`. Returns seconds."""
    (work / "commands.json").write_text(json.dumps(cmds))
    (work / "out").mkdir()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", WORKER, str(src), str(work)], cwd=work, check=True)
    seconds = time.perf_counter() - start
    shutil.move(str(work / "out"), str(dest))
    return seconds


def numeric_difference(a: str, b: str):
    """(largest absolute, largest relative) difference of the numbers of two texts, or
    None when the texts differ in anything but their numbers."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if NUMBER.split(a) != NUMBER.split(b) or len(xs) != len(ys):
        return None
    largest_abs = largest_rel = 0.0
    for x, y in zip(xs, ys):
        fx, fy = float(x.replace("Infinity", "inf")), float(y.replace("Infinity", "inf"))
        if fx == fy or (fx != fx and fy != fy):
            continue
        diff = abs(fx - fy)
        if diff != diff:  # one side nan or both infinite with opposite signs
            diff = float("inf")
        largest_abs = max(largest_abs, diff)
        largest_rel = max(largest_rel, diff / max(abs(fx), abs(fy)))
    return largest_abs, largest_rel


def compare(parent: Path, change: Path) -> dict:
    """Per-set report of how the outputs under `change` differ from those under `parent`.

    Each side holds results.json (exit code, stdout and first stderr line per
    command) and the files the commands wrote, one directory per set.
    """
    runs = [json.loads((side / "results.json").read_text())["results"] for side in (parent, change)]
    report = {}

    def entry(set_name):
        return report.setdefault(set_name, {
            "commands": 0, "files": 0, "exit_mismatches": [], "stderr_mismatches": [],
            "stdout_mismatches": [], "missing": [], "differ": [], "max_abs": 0.0, "max_rel": 0.0})

    for name in sorted(set(runs[0]) | set(runs[1])):
        rep = entry(name.split("/")[0])
        rep["commands"] += 1
        a, b = runs[0].get(name), runs[1].get(name)
        if a is None or b is None:
            rep["missing"].append(name)
            continue
        for key in ("exit", "stderr", "stdout"):
            if a[key] != b[key]:
                rep[f"{key}_mismatches"].append(name)
    files = [{p.relative_to(side).as_posix() for p in side.rglob("*") if p.is_file()} - {"results.json"}
             for side in (parent, change)]
    for rel in sorted(files[0] | files[1]):
        rep = entry(rel.split("/")[0])
        rep["files"] += 1
        if rel not in files[0] or rel not in files[1]:
            rep["missing"].append(rel)
            continue
        a, b = ((side / rel).read_bytes() for side in (parent, change))
        if a == b:
            continue
        rep["differ"].append(rel)
        diff = numeric_difference(a.decode(errors="replace"), b.decode(errors="replace"))
        diff = (float("inf"), float("inf")) if diff is None else diff
        rep["max_abs"], rep["max_rel"] = max(rep["max_abs"], diff[0]), max(rep["max_rel"], diff[1])
    return report


def identical(report: dict) -> bool:
    return all(not rep[key] for rep in report.values()
               for key in ("exit_mismatches", "stderr_mismatches", "stdout_mismatches", "missing", "differ"))


def export(rev: str, dest: Path) -> Path:
    """`git archive` the revision into `dest`; returns its src directory."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="git revision to compare against")
    side.add_argument("--parent-src", help="directory of a checkout (holding src/jsbnn) to compare against")
    parser.add_argument("--seeds", type=int, help="cap every set's seed count at N (N >= 1)")
    args = parser.parse_args(argv)
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be >= 1")

    with tempfile.TemporaryDirectory(prefix="same_numbers_") as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        work.mkdir()
        parent_src = export(args.parent, tmp / "parent-tree") if args.parent else Path(args.parent_src) / "src"
        write_configs(work)
        cmds = [cmd for name, (full, _) in SETS.items()
                for cmd in commands(work, name, range(min(full, args.seeds or full)))]
        wall = {side: run_tree(src, work, cmds, tmp / side)
                for side, src in (("parent", parent_src.resolve()), ("change", ROOT / "src"))}
        report = compare(tmp / "parent", tmp / "change")
        meta = {side: json.loads((tmp / side / "results.json").read_text()) for side in ("parent", "change")}

    for name, rep in report.items():
        print(f"{name}: {rep['commands']} commands, {rep['files']} files; "
              + ", ".join(f"{len(rep[k])} {k}" for k in
                          ("exit_mismatches", "stderr_mismatches", "stdout_mismatches", "missing", "differ"))
              + f"; largest difference {rep['max_abs']:.3g} absolute, {rep['max_rel']:.3g} relative")
        for key in ("exit_mismatches", "stderr_mismatches", "stdout_mismatches", "missing", "differ"):
            for item in rep[key][:5]:
                print(f"  {key}: {item}")
    same = identical(report)
    print(json.dumps({
        "identical": same,
        "parent": args.parent or str(Path(args.parent_src).resolve()),
        "seeds": args.seeds or "full",
        "commands": len(cmds),
        "files": sum(rep["files"] for rep in report.values()),
        "wall_s": {side: round(s, 2) for side, s in wall.items()},
        "numpy": {side: m["numpy"] for side, m in meta.items()},
        "blas": {side: m["blas"] for side, m in meta.items()},
        "sets": {name: {k: (len(v) if isinstance(v, list) else v) for k, v in rep.items()}
                 for name, rep in report.items()},
    }, sort_keys=True))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
