"""Finite-sum non-convex optimization toolkit.

Variance-reduced stochastic gradient methods (simple and full SVRG with
weighted epoch-end restarts), GD/SGD/AdaGrad baselines, l2-regularized
linear ERM and a small softplus network as objectives, LibSVM ingestion,
a reproducible benchmark CLI, and independent numerical oracles that test
the estimator's variance bounds and convergence rate as executable
properties.
"""

from .core import RandomSource, sq_norm
from .dataio import (Dataset, LibsvmFormatError, TraceRecord, flip_labels,
                     parse_libsvm, read_trace, split, write_libsvm,
                     write_trace)
from .losses import (ALL_ERM_LOSSES, SIGMOID_SCALE, LossEval, LossKind,
                     eval_loss, loss_smoothness)
from .objectives import (ErmObjective, FiniteSumObjective, SnapshotCache,
                         TwoLayerNet, make_synthetic, smoothness_probe)
from .optim import (AdaGradRate, ConstantRate, DivergenceError,
                    PolynomialRate, RunResult, SvrgSchedule, adagrad_step,
                    beta_weights, default_svrg_params, draw_epoch_stop,
                    epoch_end_weights, epochs_for_passes, gd_run,
                    parse_rate, sgd_run, svrg_estimator, svrg_full_run,
                    svrg_simple_run, theory_step)
from .verify import (SlopeFit, epoch_variance_aggregate, exact_variance,
                     fd_gradient, fit_rate_slope)

__version__ = "0.1.0"
