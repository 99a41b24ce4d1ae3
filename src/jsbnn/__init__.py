"""Variational Bayesian neural networks with Jensen-Shannon divergence losses.

A numpy library implementing three divergence-regularized training objectives
for fully-connected Bayesian networks: the classic KL/ELBO loss, a closed-form
skew-geometric Jensen-Shannon loss, and a Monte-Carlo bounded generalized
Jensen-Shannon loss, plus the verification utilities (quadrature oracles,
finite-difference checks, randomized theorem suites) used to validate them.
"""

from .errors import AllTrialsDivergedError, ConfigError, NumericError
from .gaussian import DiagonalGaussian, VariationalParams, softplus_sigma
from .divergence import (
    DivergenceConfig,
    GeometricMeanParams,
    alpha_threshold,
    fit_quadratic_coefficient,
    geometric_mean_params,
    jsa_bound,
    jsa_mc,
    jsg_dominates_kl,
    jsg_gaussian_closed,
    jsg_mc,
    kl_gaussian,
    mc_kl,
    variance_condition_holds,
)
from .oracles import GoldenCase, finite_diff, load_golden, quadrature_jsa
from .network import BayesianNetwork, VariationalDenseLayer, forward, predictive
from .loss import LossBreakdown, jsa_loss_mc, jsg_loss_closed, jsg_loss_mc, kl_loss, nll_mc
from .train import OptimizerState, SearchSpace, apply_schedule, gradients, random_search, train
from .data import Dataset, NoiseSpec, add_noise, load_csv, minmax_normalize, split, synth_clusters
from .metrics import ConfusionMatrix, RocCurve, accuracy, confusion, fn_reduction, roc_auc

__version__ = "0.1.0"
