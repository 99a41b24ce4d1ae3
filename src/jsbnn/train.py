"""Gradient computation, SGD training with LR scheduling, and seeded random search.

Training is single-writer over the network state. Search trials each own an
isolated network copy and RNG stream, and the winner selection is a
deterministic reduction, so trial execution order cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .divergence import DivergenceConfig
from .errors import AllTrialsDivergedError, NumericError
from .loss import LOSS_KINDS, MC_KINDS, LossBreakdown, build_loss_graph, draw_bundle
from .metrics import accuracy
from .network import BayesianNetwork, predictive

__all__ = [
    "OptimizerState",
    "SearchSpace",
    "ParamGradients",
    "TrainResult",
    "TRACE_CSV_HEADER",
    "gradients",
    "train",
    "apply_schedule",
    "random_search",
]

TRACE_CSV_HEADER = "epoch,train_acc,val_acc,divergence_term,nll_term,total,lr"


@dataclass(frozen=True)
class OptimizerState:
    """Plain SGD state: learning rate, (epoch, multiplier) schedule, momentum.

    Momentum is available but off by default; the reference update is the
    vanilla step mu <- mu - lr * dF/dmu, rho <- rho - lr * dF/drho.
    """

    learning_rate: float
    schedule: tuple = ()
    momentum: float = 0.0

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        for epoch, mult in self.schedule:
            if mult <= 0.0:
                raise ValueError("schedule multipliers must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


def apply_schedule(opt: OptimizerState, epoch: int) -> OptimizerState:
    """Scale the learning rate by the product of multipliers registered for `epoch`."""
    factor = 1.0
    for at_epoch, mult in opt.schedule:
        if at_epoch == epoch:
            factor *= mult
    if factor == 1.0:
        return opt
    return replace(opt, learning_rate=opt.learning_rate * factor)


@dataclass(frozen=True)
class SearchSpace:
    """Random-search space: continuous alpha range, discrete lambda/lr choices."""

    alpha_range: tuple = (0.0, 1.0)
    lambda_choices: tuple = (1.0,)
    lr_choices: tuple = (0.05,)
    trials: int = 1

    def __post_init__(self):
        lo, hi = self.alpha_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("alpha_range must be within [0, 1]")
        if not self.lambda_choices or not self.lr_choices:
            raise ValueError("lambda_choices and lr_choices must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class ParamGradients:
    """Gradients of the flat (mu, rho) vectors, in the network's layout.

    w_mu, w_rho, b_mu and b_rho give per-layer views into them.
    """

    mu: np.ndarray
    rho: np.ndarray
    layout: list

    def _views(self, flat, which):
        return [flat[parts[which][0]] for parts in self.layout]

    @property
    def w_mu(self) -> list:
        return self._views(self.mu, 0)

    @property
    def w_rho(self) -> list:
        return self._views(self.rho, 0)

    @property
    def b_mu(self) -> list:
        return self._views(self.mu, 1)

    @property
    def b_rho(self) -> list:
        return self._views(self.rho, 1)


def gradients(net: BayesianNetwork, batch, loss_kind: str, cfg: DivergenceConfig,
              minibatch_scale: float = 1.0, step: int = 0):
    """Exact reverse-mode gradients of the scalar loss for the given seed.

    Returns (ParamGradients, LossBreakdown). The rho path carries the
    softplus chain-rule factor eps / (1 + exp(-rho)) automatically.
    Raises NumericError naming the offending tensor if any gradient is
    non-finite.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    bundle = draw_bundle(net, cfg, step, with_prior=loss_kind in MC_KINDS)
    total, div, nll, (mu, rho) = build_loss_graph(net, batch, loss_kind, cfg, minibatch_scale, bundle)
    total.backward()
    grads = ParamGradients(mu.grad, rho.grad, net.layout())
    if not (np.all(np.isfinite(grads.mu)) and np.all(np.isfinite(grads.rho))):
        # name the first offending tensor, in layout order
        for i, parts in enumerate(grads.layout):
            for (cols, _), tensor in zip(parts, ("weights", "biases")):
                for name, g in (("mu", grads.mu), ("rho", grads.rho)):
                    if not np.all(np.isfinite(g[cols])):
                        raise NumericError(f"non-finite gradient in layer {i} {tensor} {name}")
    breakdown = LossBreakdown(
        divergence_term=div.item(), nll_term=nll.item(), total=total.item(),
        minibatch_scale=minibatch_scale,
    )
    return grads, breakdown


@dataclass
class TrainResult:
    """Outcome of a training run.

    trace holds one row per completed epoch:
    (epoch, train_acc, val_acc, divergence_term, nll_term, total, lr),
    where the loss columns are epoch means over minibatch breakdowns.
    best_params holds the flat (mu, rho) of the epoch with the highest validation
    accuracy.
    aborted is set when a non-finite loss, gradient or update forced a stop; the
    network is then rolled back to the last finite state.
    """

    trace: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = -1.0
    best_params: tuple = None
    aborted: bool = False
    abort_reason: str = ""
    step_breakdowns: list = field(default_factory=list)

    def trace_csv_rows(self):
        return [
            f"{e},{ta!r},{va!r},{d!r},{n!r},{t!r},{lr!r}"
            for (e, ta, va, d, n, t, lr) in self.trace
        ]

    def step_csv_rows(self):
        return [b.csv_row(s) for s, b in self.step_breakdowns]


def _apply_update(net: BayesianNetwork, grads: ParamGradients, lr: float,
                  momentum: float, velocity: np.ndarray):
    """One SGD step on the flat (mu, rho); velocity is the (2, P) momentum buffer.

    Raises NumericError, leaving the network unchanged, if the step overflows.
    """
    steps = (grads.mu, grads.rho)
    if momentum > 0.0:
        velocity *= momentum
        velocity += steps
        steps = velocity
    mu, rho = net.mu - lr * steps[0], net.rho - lr * steps[1]
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(rho))):
        raise NumericError("non-finite parameters after the update")
    net.set_flat_params(mu, rho)


def _epoch_accuracy(net, x, y, n_samples, seed) -> float:
    if x.shape[0] == 0:
        return float("nan")
    probs = predictive(net, x, n_samples, seed)
    return accuracy(probs, y)


def train(net: BayesianNetwork, dataset, loss_kind: str, cfg: DivergenceConfig,
          optimizer: OptimizerState, epochs: int, batch_size: int = 32,
          early_stop_patience: int = None, eval_samples: int = 32,
          step_log: bool = False) -> TrainResult:
    """Minibatch SGD on the chosen objective; deterministic for fixed seeds.

    dataset supplies train/validation splits via subset("train") and
    subset("validation") (see data.Dataset). The divergence term of each
    minibatch loss is scaled by 1 / (minibatches per epoch) so one epoch applies
    one full-batch worth of regularization. Training stops early once the
    validation accuracy has not improved for `early_stop_patience` epochs.

    A non-finite loss or gradient aborts the run: the network is restored to
    the last finite snapshot and the result is flagged aborted.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    x_train, y_train = dataset.subset("train")
    x_val, y_val = dataset.subset("validation")
    if x_train.shape[0] == 0:
        raise ValueError("dataset has an empty training split")

    n_batches = max(1, int(np.ceil(x_train.shape[0] / batch_size)))
    scale = 1.0 / n_batches
    opt = optimizer
    velocity = np.zeros((2, net.n_parameters))
    result = TrainResult()
    last_good = net.flat_params()
    step = 0
    for epoch in range(1, epochs + 1):
        opt = apply_schedule(opt, epoch)
        order = np.random.default_rng([int(cfg.seed), 1, epoch]).permutation(x_train.shape[0])
        sum_div = sum_nll = sum_total = 0.0
        try:
            for start in range(0, x_train.shape[0], batch_size):
                idx = order[start:start + batch_size]
                batch = (x_train[idx], y_train[idx])
                # overflow here is an expected, handled failure mode (abort below)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    grads, breakdown = gradients(net, batch, loss_kind, cfg, scale, step)
                    if not np.isfinite(breakdown.total):
                        raise NumericError(f"non-finite loss at step {step}")
                    if step_log:
                        result.step_breakdowns.append((step, breakdown))
                    _apply_update(net, grads, opt.learning_rate, opt.momentum, velocity)
                sum_div += breakdown.divergence_term
                sum_nll += breakdown.nll_term
                sum_total += breakdown.total
                step += 1
        except NumericError as err:
            restore_params(net, last_good)
            result.aborted = True
            result.abort_reason = str(err)
            break
        last_good = net.flat_params()
        train_acc = _epoch_accuracy(net, x_train, y_train, eval_samples, [int(cfg.seed), 3, epoch, 0])
        val_acc = _epoch_accuracy(net, x_val, y_val, eval_samples, [int(cfg.seed), 3, epoch, 1])
        result.trace.append((
            epoch, train_acc, val_acc,
            sum_div / n_batches, sum_nll / n_batches, sum_total / n_batches,
            opt.learning_rate,
        ))
        if not np.isnan(val_acc) and val_acc > result.best_val_acc:
            result.best_val_acc = val_acc
            result.best_epoch = epoch
            result.best_params = net.flat_params()
        if (early_stop_patience is not None and result.best_epoch >= 1
                and epoch - result.best_epoch >= early_stop_patience):
            break
    if result.best_params is None:
        result.best_params = net.flat_params()
        result.best_epoch = len(result.trace)
    return result


def restore_params(net: BayesianNetwork, params: tuple):
    """Load a flat (mu, rho) snapshot (e.g. TrainResult.best_params) into the network."""
    net.set_flat_params(*params)


def random_search(space: SearchSpace, experiment, seed: int):
    """Seeded random hyperparameter search maximizing validation accuracy.

    `experiment` is a callable (alpha, lam, lr) -> validation accuracy; a trial
    counts as diverged when it raises NumericError or returns NaN. Ties are
    broken toward lower lambda, then lower alpha, then first-seen order.
    Raises AllTrialsDivergedError when no trial survives.

    Returns (best, trials) where best is a dict with alpha/lambda/lr/val_acc
    and trials lists one dict per trial in draw order.
    """
    trials = []
    for t in range(space.trials):
        rng = np.random.default_rng([int(seed), t])
        alpha = float(rng.uniform(*space.alpha_range))
        lam = float(space.lambda_choices[rng.integers(len(space.lambda_choices))])
        lr = float(space.lr_choices[rng.integers(len(space.lr_choices))])
        record = {"trial": t, "alpha": alpha, "lambda": lam, "lr": lr,
                  "val_acc": float("nan"), "diverged": False}
        try:
            acc = float(experiment(alpha, lam, lr))
        except NumericError as err:
            record["diverged"] = True
            record["error"] = str(err)
            trials.append(record)
            continue
        if np.isnan(acc):
            record["diverged"] = True
        else:
            record["val_acc"] = acc
        trials.append(record)
    alive = [r for r in trials if not r["diverged"]]
    if not alive:
        raise AllTrialsDivergedError(f"all {space.trials} search trials diverged")
    best = min(alive, key=lambda r: (-r["val_acc"], r["lambda"], r["alpha"], r["trial"]))
    return best, trials
