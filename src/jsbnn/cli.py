"""Command-line entry point: training, evaluation, and the analysis studies.

Subcommands: train, eval, divergence-curve, mc-convergence, verify-theorems,
search. Exit codes: 0 success, 2 config error, 3 numeric abort, 4 verification
failure. Every command is deterministic under fixed seeds and every output
file starts with a provenance header (config hash, seed, version).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ALPHA, COUNT, EVAL_SAMPLES, FINITE, MAX_DRAW_FLOATS, NONNEGATIVE, POSITIVE, SEED, TEXT, config_hash,
    listof, number, load_config,
)
from .data import manifest
from .divergence import (
    alpha_threshold,
    fit_quadratic_coefficient,
    jsa_bound,
    jsa_mc,
    jsg_dominates_kl,
    jsg_gaussian_closed,
    jsg_mc,
    kl_gaussian,
    variance_condition_holds,
)
from .errors import AllTrialsDivergedError, ConfigError, NumericError
from .gaussian import DiagonalGaussian
from .loss import BREAKDOWN_CSV_HEADER
from .metrics import accuracy, confusion, roc_auc
from .network import load_checkpoint, predictive, save_checkpoint
from .oracles import quadrature_jsa
from .train import SearchSpace, TRACE_CSV_HEADER, random_search, restore_params, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _flag(check, parse=float):
    """argparse `type=` for a config check: a bad value exits 2 with a usage line."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = text
        if not check.ok(value):
            raise argparse.ArgumentTypeError(f"must be {check.text}")
        return value
    return convert


def _split(parse):
    """argparse `parse` for a comma-separated list."""
    return lambda text: [parse(v) for v in text.split(",")]


_SEED, _COUNT = _flag(SEED, int), _flag(COUNT, int)
_ALPHA, _FINITE, _POSITIVE, _NONNEGATIVE = (_flag(c) for c in (ALPHA, FINITE, POSITIVE, NONNEGATIVE))
_DRAWS = number(f"[1, {MAX_DRAW_FLOATS}]", integer=True)  # the studies draw all their samples at once


def _provenance(seed, params_hash: str) -> str:
    return f"# provenance: tool=jsbnn version={__version__} config_hash={params_hash} seed={seed}"


def _hash_params(**kwargs) -> str:
    text = json.dumps(kwargs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _write_lines(path, lines):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args.config, vars(args))
    header = _provenance(cfg.seed, config_hash(cfg))
    out = Path(cfg.output_dir)
    ds = cfg.build_dataset()
    net = cfg.build_network()
    result = train(
        net, ds, cfg.loss["kind"], cfg.divergence_config(), cfg.optimizer_state(),
        epochs=cfg.epochs, batch_size=cfg.optimizer["batch_size"],
        early_stop_patience=cfg.early_stop_patience, eval_samples=cfg.eval_samples,
        step_log=args.step_csv,
    )
    _write_lines(out / "trace.csv", [header, TRACE_CSV_HEADER] + result.trace_csv_rows())
    if args.step_csv:
        _write_lines(out / "steps.csv", [header, BREAKDOWN_CSV_HEADER] + result.step_csv_rows())
    if cfg.dataset["kind"] == "synthetic":
        (out / "manifest.json").write_text(
            manifest(cfg.dataset["seed"], cfg.noise_spec(), cfg.dataset["bias_ratio"],
                     cfg.dataset["split_fractions"])
        )
    (out / "config.json").write_text(cfg.to_json())
    if not result.aborted:  # else the network was already rolled back to the last finite snapshot
        restore_params(net, result.best_params)
    save_checkpoint(net, out / "checkpoint.json", seed_lineage=[cfg.seed])
    if result.aborted:
        print(f"numeric abort: {result.abort_reason}; last-good checkpoint written", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"trained {len(result.trace)} epochs; best val acc {result.best_val_acc:.4f} "
          f"at epoch {result.best_epoch}; wrote {out}/trace.csv and {out}/checkpoint.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config, vars(args))
    try:
        net = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as err:
        raise ConfigError(f"checkpoint: {err}") from None
    ds = cfg.build_dataset()
    x_test, y_test = ds.subset("test")
    if x_test.shape[0] == 0:
        raise ConfigError("dataset has an empty test split")
    if x_test.shape[1] != net.n_inputs:
        raise ConfigError(f"checkpoint expects {net.n_inputs} features, dataset has {x_test.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked just below
        probs = predictive(net, x_test, args.n_samples, [cfg.seed, 6])
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite predictive probabilities")
    cm = confusion(probs, y_test, net.n_outputs)
    report = {
        "provenance": {"tool": "jsbnn", "version": __version__,
                       "config_hash": config_hash(cfg), "seed": cfg.seed},
        "n_samples": args.n_samples,
        "accuracy": accuracy(probs, y_test),
        "confusion": cm.counts.tolist(),
    }
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if net.n_outputs == 2:
        curve = roc_auc(probs[:, 1], y_test)
        report["auc"] = curve.auc
        report["roc_points"] = curve.points.tolist()
        _write_lines(out / "roc.csv",
                     [_provenance(cfg.seed, config_hash(cfg)), "fpr,tpr"] + curve.csv_rows())
    (out / "metrics.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"accuracy {report['accuracy']:.4f}"
          + (f", AUC {report['auc']:.4f}" if "auc" in report else "")
          + f"; wrote {out}/metrics.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analysis studies
# ---------------------------------------------------------------------------


def cmd_divergence_curve(args) -> int:
    p = DiagonalGaussian([args.p_mu], [math.sqrt(args.p_sigma_sq)])
    mu_grid = np.linspace(args.mu_min, args.mu_max, args.mu_steps)
    params_hash = _hash_params(cmd="divergence-curve", q_sigma_sq=args.q_sigma_sq,
                               p_mu=args.p_mu, p_sigma_sq=args.p_sigma_sq,
                               alpha=args.alpha, lam=getattr(args, "lambda"),
                               grid=[args.mu_min, args.mu_max, args.mu_steps],
                               mc_samples=args.mc_samples, seed=args.seed)
    rows = [_provenance(args.seed, params_hash), "mu,kl,jsg_closed,jsa_mc_scaled"]
    kls, jsgs = [], []
    for i, mu in enumerate(mu_grid):
        q = DiagonalGaussian([mu], [math.sqrt(args.q_sigma_sq)])
        kls.append(kl_gaussian(q, p))
        jsgs.append(jsg_gaussian_closed(q, p, args.alpha))
        jsa = getattr(args, "lambda") * jsa_mc(q, p, args.alpha, args.mc_samples, [args.seed, i])
        rows.append(f"{float(mu)!r},{kls[-1]!r},{jsgs[-1]!r},{jsa!r}")
    _write_lines(args.output, rows)
    kl_coeff, jsg_coeff = (fit_quadratic_coefficient(mu_grid, ys) for ys in (kls, jsgs))
    print(f"wrote {args.output}; quadratic growth: jsg {jsg_coeff:.4f} vs kl {kl_coeff:.4f}")
    return EXIT_OK


def cmd_mc_convergence(args) -> int:
    q = DiagonalGaussian([args.q_mu], [math.sqrt(args.q_sigma_sq)])
    p = DiagonalGaussian([args.p_mu], [math.sqrt(args.p_sigma_sq)])
    closed = jsg_gaussian_closed(q, p, args.alpha)
    if closed == 0.0:
        raise ConfigError("closed-form divergence is zero; relative error undefined")
    params_hash = _hash_params(cmd="mc-convergence", q=[args.q_mu, args.q_sigma_sq],
                               p=[args.p_mu, args.p_sigma_sq], alpha=args.alpha,
                               samples=args.samples, seeds=args.seeds, seed=args.seed)
    rows = [_provenance(args.seed, params_hash), "n,mean_rel_error,closed_form"]
    for n in args.samples:
        errs = [
            abs(jsg_mc(q, p, args.alpha, n, [args.seed, s]) - closed) / abs(closed)
            for s in range(args.seeds)
        ]
        rows.append(f"{n},{float(np.mean(errs))!r},{closed!r}")
    _write_lines(args.output, rows)
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------


def _random_univariate_pair(rng):
    mq, mp = rng.uniform(-3, 3, 2)
    sq, sp = np.exp(rng.uniform(np.log(0.05), np.log(3.0), 2))
    return DiagonalGaussian([mq], [sq]), DiagonalGaussian([mp], [sp])


def _jsa_bound_holds(q, p, rng):
    """Boundedness of the skewed-mixture divergence (quadrature oracle)."""
    alphas = np.arange(0.1, 0.95, 0.1).tolist()
    vals = quadrature_jsa(q.mu[0], q.sigma[0], p.mu[0], p.sigma[0], alphas)
    for alpha, val in zip(alphas, vals.tolist()):
        yield jsa_bound(alpha) + 1e-9 - val >= 0, (alpha, val)


def _dominance_threshold_holds(q, p, rng):
    """Positive dominance threshold; dominance boolean consistent with it."""
    thr = alpha_threshold(q, p)
    alpha = float(rng.uniform(0, 1))
    yield (thr >= 0.0) and (jsg_dominates_kl(q, p, alpha, 1.0) == (alpha > thr)), (thr, alpha)


def _variance_condition_holds(q, p, rng):
    """Threshold admissible within [0,1] exactly when the prior variance dominates."""
    thr = alpha_threshold(q, p)
    gamma = p.var[0] / q.var[0]
    dmu2 = (p.mu[0] - q.mu[0]) ** 2
    expr = gamma - 1 / gamma - 2 * math.log(gamma) + dmu2 / q.var[0] * (1 - 1 / gamma)
    yield ((thr < 1.0) == variance_condition_holds(q, p)) and (
        (expr > 0) == (kl_gaussian(p, q) > kl_gaussian(q, p))
    ), (thr,)


def _skew_duality_holds(q, p, rng):
    """Closed-form structure: skew duality and KL recovery at the endpoints."""
    alpha = float(rng.uniform(0, 1))
    dual = abs(jsg_gaussian_closed(q, p, alpha) - jsg_gaussian_closed(p, q, 1 - alpha))
    rec0 = abs(jsg_gaussian_closed(q, p, 0.0) - kl_gaussian(q, p))
    rec1 = abs(jsg_gaussian_closed(q, p, 1.0) - kl_gaussian(p, q))
    scale = 1.0 + jsg_gaussian_closed(q, p, alpha)
    yield max(dual, rec0, rec1) <= 1e-12 * scale, (alpha,)


# (name, stream, check, what a trial covers besides its pair); a check takes the pair and
# the stream and yields, per condition, whether it holds and what to report if not
SUITES = (
    ("jsa-bound", 10, _jsa_bound_holds, " x 9 alphas"),
    ("dominance-threshold", 11, _dominance_threshold_holds, ""),
    ("variance-condition", 12, _variance_condition_holds, ""),
    ("skew-duality", 13, _skew_duality_holds, ""),
)


def run_theorem_suites(trials: int, seed: int, inject_bug: bool = False):
    """Randomized checks of the boundedness, dominance, and variance-condition results.

    Returns a list of (suite name, passed, detail). `inject_bug` negates each
    condition before checking, which must make every suite fail; it exists so
    the harness itself can be tested.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    results = []
    for name, stream, check, per_pair in SUITES:
        rng = np.random.default_rng([int(seed), stream])
        bad = []
        for _ in range(trials):
            q, p = _random_univariate_pair(rng)
            bad += [(q.mu[0], q.sigma[0], p.mu[0], p.sigma[0], *extra)
                    for holds, extra in check(q, p, rng) if holds == inject_bug]
        results.append((name, not bad, f"{trials} pairs{per_pair}"
                        + (f"; first violation pair={bad[0]}" if bad else "")))
    return results


def cmd_verify_theorems(args) -> int:
    results = run_theorem_suites(args.trials, args.seed, inject_bug=args.inject_bug)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(passed for _, passed, _ in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    cfg = load_config(args.config, vars(args))
    space = SearchSpace(alpha_range=tuple(args.alpha_range), lambda_choices=tuple(args.lambda_choices),
                        lr_choices=tuple(args.lr_choices), trials=args.trials)
    ds = cfg.build_dataset()

    def experiment(alpha, lam, lr):
        net = cfg.build_network()
        dcfg = replace(cfg.divergence_config(), alpha=alpha, lam=lam)
        opt = replace(cfg.optimizer_state(), learning_rate=lr)
        result = train(net, ds, cfg.loss["kind"], dcfg, opt, epochs=cfg.epochs,
                       batch_size=cfg.optimizer["batch_size"],
                       early_stop_patience=cfg.early_stop_patience,
                       eval_samples=cfg.eval_samples)
        if result.aborted:
            return float("nan")
        return result.best_val_acc

    try:
        best, trial_rows = random_search(space, experiment, cfg.seed)
    except AllTrialsDivergedError as err:
        print(f"search failed: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    out = Path(cfg.output_dir)
    header = _provenance(cfg.seed, config_hash(cfg))
    rows = [header, "trial,alpha,lambda,lr,val_acc,diverged"] + [
        f"{r['trial']},{r['alpha']!r},{r['lambda']!r},{r['lr']!r},{r['val_acc']!r},{int(r['diverged'])}"
        for r in trial_rows]
    _write_lines(out / "search.csv", rows)
    (out / "best.json").write_text(json.dumps(best, indent=1, sort_keys=True))
    print(f"best: alpha={best['alpha']:.4f} lambda={best['lambda']} lr={best['lr']} "
          f"val_acc={best['val_acc']:.4f}; wrote {out}/search.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsbnn",
        description="Variational Bayesian networks with KL / JS-G / JS-A losses.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Exit codes: 0 success, 2 config error, 3 numeric abort, 4 verification failure.\n"
            "CSV column orders (fixed):\n"
            "  trace.csv:            epoch,train_acc,val_acc,divergence_term,nll_term,total,lr\n"
            "  steps.csv:            step,divergence_term,nll_term,total\n"
            "  roc.csv:              fpr,tpr\n"
            "  search.csv:           trial,alpha,lambda,lr,val_acc,diverged\n"
            "  divergence-curve:     mu,kl,jsg_closed,jsa_mc_scaled\n"
            "  mc-convergence:       n,mean_rel_error,closed_form\n"
            "Every output file starts with one '# provenance:' header line."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = argparse.ArgumentParser(add_help=False)  # the flags of the config-driven commands
    experiment.add_argument("--config", required=True, help="experiment config JSON")
    experiment.add_argument("--seed", type=_SEED, required=True, help="master seed (mandatory)")
    experiment.add_argument("--output-dir", type=_flag(TEXT, str), help="override output directory")

    p = sub.add_parser("train", parents=[experiment],
                       help="train a network; writes trace.csv and checkpoint.json")
    p.add_argument("--epochs", type=_COUNT, help="override config epochs")
    p.add_argument("--loss", choices=("kl", "jsg_closed", "jsg_mc", "jsa_mc"), help="override loss kind")
    p.add_argument("--alpha", type=_ALPHA, help="override skew alpha")
    p.add_argument("--lambda", type=_NONNEGATIVE, help="override constraint weight")
    p.add_argument("--lr", type=_NONNEGATIVE, help="override learning rate")
    p.add_argument("--step-csv", action="store_true",
                   help="also write per-step loss breakdowns to steps.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[experiment], help="evaluate a checkpoint on the config's test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-samples", type=_flag(EVAL_SAMPLES, int), default=100, help="predictive MC samples")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("divergence-curve",
                       help="CSV of (mu, kl, jsg_closed, jsa_mc_scaled) for q=N(mu, q_sigma_sq) vs p")
    p.add_argument("--q-sigma-sq", type=_POSITIVE, default=0.01)
    p.add_argument("--p-mu", type=_FINITE, default=0.0)
    p.add_argument("--p-sigma-sq", type=_POSITIVE, default=0.1)
    p.add_argument("--alpha", type=_ALPHA, default=0.5)
    p.add_argument("--lambda", type=_NONNEGATIVE, default=1.0,
                   help="scale factor on the jsa_mc column")
    p.add_argument("--mu-min", type=_FINITE, default=-1.0)
    p.add_argument("--mu-max", type=_FINITE, default=1.0)
    p.add_argument("--mu-steps", type=_flag(number(f"[3, {MAX_DRAW_FLOATS}]", integer=True), int),
                   default=41)
    p.add_argument("--mc-samples", type=_flag(_DRAWS, int), default=10_000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--output", default="divergence_curve.csv")
    p.set_defaults(func=cmd_divergence_curve)

    p = sub.add_parser("mc-convergence",
                       help="CSV of mean relative MC error vs sample count against the closed form")
    p.add_argument("--q-mu", type=_FINITE, default=5.0)
    p.add_argument("--q-sigma-sq", type=_POSITIVE, default=1.0)
    p.add_argument("--p-mu", type=_FINITE, default=0.0)
    p.add_argument("--p-sigma-sq", type=_POSITIVE, default=1.0)
    p.add_argument("--alpha", type=_ALPHA, default=0.5)
    p.add_argument("--samples", type=_flag(listof(_DRAWS, ordered=True), _split(int)),
                   default="10,50,100,300,600,1000,10000", help="ascending comma-separated sample counts")
    p.add_argument("--seeds", type=_COUNT, default=20, help="seeds averaged per sample count")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--output", default="mc_convergence.csv")
    p.set_defaults(func=cmd_mc_convergence)

    p = sub.add_parser("verify-theorems", help="randomized verification suites; exit 4 on violation")
    p.add_argument("--trials", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--inject-bug", action="store_true",
                   help="negate every condition (harness self-test; must fail)")
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("search", parents=[experiment], help="seeded random hyperparameter search")
    p.add_argument("--trials", type=_COUNT, default=8)
    p.add_argument("--alpha-range", type=_flag(listof(ALPHA, 2, exact=True, ordered=True), _split(float)),
                   default="0.0,1.0")
    p.add_argument("--lambda-choices", type=_flag(listof(NONNEGATIVE), _split(float)), default="1.0")
    p.add_argument("--lr-choices", type=_flag(listof(NONNEGATIVE), _split(float)), default="0.05")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage line (or --help)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
