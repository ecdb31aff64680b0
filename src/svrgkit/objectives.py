"""Concrete finite-sum objectives: linear ERM and a two-layer softplus
network.

Every objective exposes the same surface: component count ``n``, parameter
dimension ``dim``, ``smoothness`` (a Lipschitz bound on every component
gradient: ERM's closed form, while a network's raises, having none),
1-based per-component value/gradient, the exact full average, and snapshot
caches for variance-reduced estimators.

:func:`smoothness_probe` is the one empirical smoothness measurement: the
largest gradient-difference ratio of random component pairs.  verify
checks ERM's closed-form constant against it; a network has no closed
form, and a run that steps from L takes twice the probe at scale 0.1 over
200 pairs (``cli._smoothness_rate``).  Those 400 component gradients are
set-up, charged to no run's ledger.

Linear ERM is built from a Dataset only and views its int64 CSR arrays;
it never holds an index copy, so every per-row gather ``x[cols]`` and
scatter ``out[cols] +=`` indexes with intp as it is.  The layout follows
the data.  When every row is full, the values are viewed as a dense
(n, d) matrix: the full-pass products are BLAS ones and a row reads all
of x.  Otherwise the products are numpy only (``ErmObjective._times``):
``X @ x`` is a ``bincount`` over each entry's row and ``X.T @ v`` one over
its column, both adding every row or column in storage order as a CSR
matvec does, so they equal scipy's products bit for bit.  Their O(nnz)
temporaries (each entry's row, its weight) are rebuilt per product and
never stored.  The per-row loop of the inner steps (``_add_rows``) slices
the same arrays in both layouts and reads row bounds, labels and
reference derivatives as Python scalars.
"""

from __future__ import annotations

import numpy as np

from .core import RandomSource, sq_norm
from .dataio import Dataset
from .losses import LossKind, eval_loss, loss_smoothness, make_scalar_derivative


# Rows per kernel call of a full pass.  A block bounds the kernel's
# temporaries whatever n is, and keeps its matrix products small: over all
# 1,000 rows of a d=50, hidden-64 network they went multi-threaded in
# OpenBLAS and the pass took 21-24 ms on a 2-vCPU machine, against 4-5 ms
# in blocks of 128.
_BLOCK_ROWS = 128


def _no_reference(i0: int) -> float:
    return 0.0


class _EveryColumn:
    """Column array of dense rows laid end to end: every slice of it is
    ``...``, so a dense row gathers and scatters all of x like a CSR row."""

    def __getitem__(self, key):
        return ...


_EVERY_COLUMN = _EveryColumn()


class SnapshotCache:
    """Frozen reference point for variance-reduced gradient estimators.

    ``mode`` is 'stored' when per-component gradients at the reference are
    reconstructible without touching the data again (linear ERM keeps the n
    scalar loss derivatives), and 'recompute' when they must be re-evaluated
    (pass accounting differs between the two).
    """

    def __init__(self, x_ref, full_grad, value, residuals=None):
        self.x_ref = x_ref.copy()
        self.full_grad = full_grad
        self.value = value
        self.residuals = residuals
        self.mode = "stored" if residuals is not None else "recompute"


class FiniteSumObjective:
    """Base class fixing the finite-sum contract; subclasses fill in
    ``component`` and either ``block_value_and_gradient`` or their own full
    pass, and may override the batched paths for speed."""

    n: int
    dim: int
    smoothness: float

    def component(self, i: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def block_value_and_gradient(self, rows, x: np.ndarray,
                                 ) -> tuple[float, np.ndarray]:
        """Mean component value and gradient over the 0-based ``rows``, a
        slice or an index array."""
        raise NotImplementedError

    def full_value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact average of component values/gradients (one data pass),
        taken over blocks of at most ``_BLOCK_ROWS`` rows."""
        if self.n == 0:
            raise ValueError("objective has no components")
        value, grad = 0.0, np.zeros(self.dim)
        for start in range(0, self.n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, self.n)
            v, g = self.block_value_and_gradient(slice(start, stop), x)
            share = (stop - start) / self.n
            value += share * v
            grad += share * g
        return value, grad

    def batch_mean_grad(self, idx, x: np.ndarray) -> np.ndarray:
        """Mean gradient over 1-based component indices ``idx``."""
        grad = np.zeros(self.dim)
        for i in idx:
            grad += self.component(int(i), x)[1]
        return grad / len(idx)

    def snapshot_mode(self, mode: str = "auto") -> str:
        """Mode :meth:`build_snapshot` uses when asked for ``mode``."""
        return "recompute"

    def build_snapshot(self, x: np.ndarray, mode: str = "auto") -> SnapshotCache:
        """Evaluate the full gradient at x and freeze it as a snapshot.

        ``mode='stored'`` is only available where reconstruction is exact
        and free (overridden by linear ERM); the default here recomputes.
        """
        if mode == "stored":
            raise ValueError(f"{type(self).__name__} has no stored-residual mode")
        value, grad = self.full_value_and_gradient(x)
        return SnapshotCache(x, grad, value)


class ErmObjective(FiniteSumObjective):
    """l2-regularized linear ERM over a margin loss and a binary Dataset.

    Components are f_i(x) = loss(l_i <a_i, x>) + lam/2 ||x||^2.  The
    smoothness constant is the conservative per-component bound
    L_loss * max_i ||a_i||^2 + lam.  The objective views the Dataset's CSR
    arrays and int64 labels.  When every row is full (``val.size ==
    n * dim``; ``from_csr`` drops zeros, so the test is exact), ``_X`` is
    the values viewed as an (n, dim) matrix and the products are BLAS
    ones; otherwise ``_X`` is None.
    """

    def __init__(self, data: Dataset, loss: LossKind, lam: float = 0.0):
        if lam < 0:
            raise ValueError("lambda must be non-negative")
        if not data.binary:
            raise ValueError("linear ERM needs a binary dataset")
        if len(data) == 0:
            raise ValueError("empty dataset")
        self.loss = loss
        self.lam = float(lam)
        self._deriv1 = make_scalar_derivative(loss)
        self.n = len(data)
        self.dim = data.dim
        # int64 labels: +-1 times a float is exact, so no float copy
        self.labels = data.labels
        self._indptr, self._cols, self._vals = (
            data.indptr, data.col_idx, data.val)
        if self._vals.size == self.n * self.dim:
            # The full rows end to end, read by the row loops like CSR rows.
            self._X = self._vals.reshape(self.n, self.dim)
            self._cols = _EVERY_COLUMN
            row_norms = (self._X ** 2).sum(axis=1)
        else:
            self._X = None
            # Sums of the non-empty rows; reduceat adds a row in storage
            # order, as scipy's row sums do (np.add.reduce pairs terms).
            starts = self._indptr[:-1][np.diff(self._indptr) > 0]
            row_norms = (np.add.reduceat(self._vals * self._vals, starts)
                         if starts.size else np.zeros(1))
        self.smoothness = (loss_smoothness(loss) * float(row_norms.max())
                           + self.lam)

    def _add_rows(self, out, x, idx, scale, refs=None):
        """out += scale * sum_i (loss'(t_i) - refs[i-1]) l_i a_i over the
        1-based rows i in ``idx``, t_i = l_i <a_i, x> (refs 0 when None).

        The per-row loop of every batched path.  Row bounds, labels and
        reference derivatives are read as Python scalars, the row's values
        and columns as views of the data arrays."""
        deriv1, bound, label_of = self._deriv1, self._indptr.item, self.labels.item
        ref_of = refs.item if refs is not None else _no_reference
        cols_all, vals_all = self._cols, self._vals
        for i in idx:
            lo, hi = bound(i - 1), bound(i)
            cols, vals = cols_all[lo:hi], vals_all[lo:hi]
            label = label_of(i - 1)
            deriv = deriv1(label * float(np.dot(vals, x[cols])))
            out[cols] += scale * (deriv - ref_of(i - 1)) * label * vals
        return out

    def _times(self, v: np.ndarray, transpose: bool = False) -> np.ndarray:
        """X @ v, or X.T @ v with ``transpose``; the one place that tells
        the dense layout (full rows) from the CSR one."""
        if self._X is not None:
            return (self._X.T if transpose else self._X) @ v
        counts = np.diff(self._indptr)
        if transpose:
            # v at each entry's row, without building the rows
            weights = np.repeat(v, counts)
            weights *= self._vals
            return np.bincount(self._cols, weights, minlength=self.dim)
        weights = v[self._cols]
        weights *= self._vals
        return np.bincount(np.repeat(np.arange(self.n), counts), weights,
                           minlength=self.n)

    # -- finite-sum surface -------------------------------------------------

    def component(self, i: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        if not 1 <= i <= self.n:
            raise IndexError(f"component index {i} out of range 1..{self.n}")
        lo, hi = self._indptr.item(i - 1), self._indptr.item(i)
        cols, vals = self._cols[lo:hi], self._vals[lo:hi]
        label = self.labels.item(i - 1)
        value, deriv = eval_loss(self.loss, label * float(np.dot(vals, x[cols])))
        grad = self.lam * x if self.lam else np.zeros(self.dim)
        if self.lam:
            value = value + 0.5 * self.lam * sq_norm(x)
        grad[cols] += deriv * label * vals
        return value, grad

    def full_value_and_gradient(self, x):
        return self._full_pass(x)[:2]

    def _full_pass(self, x):
        """Full value and gradient at x, and every row's loss derivative
        at its margin, from one loss evaluation."""
        values, derivs = eval_loss(self.loss, self.labels * self._times(x))
        grad = self._times(derivs * self.labels / self.n, transpose=True)
        value = float(values.mean())
        if self.lam:
            grad = grad + self.lam * x
            value += 0.5 * self.lam * sq_norm(x)
        return value, grad, derivs

    def batch_mean_grad(self, idx, x):
        if min(idx) < 1 or max(idx) > self.n:
            raise IndexError(f"batch index out of range 1..{self.n}")
        grad = self.lam * x if self.lam else np.zeros(self.dim)
        return self._add_rows(grad, x, idx, 1.0 / len(idx))

    def snapshot_mode(self, mode: str = "auto") -> str:
        return "recompute" if mode == "recompute" else "stored"

    def build_snapshot(self, x, mode: str = "auto"):
        value, grad, derivs = self._full_pass(x)
        stored = self.snapshot_mode(mode) == "stored"
        return SnapshotCache(x, grad, value, derivs if stored else None)

    def fused_svrg_estimator(self, cache: SnapshotCache, x, idx,
                             out=None) -> np.ndarray:
        """mu + mean_i(grad_i(x) - grad_i(x_ref)) without per-row allocs,
        reading the reference derivatives from a stored-mode ``cache``;
        written into ``out`` (which must not alias ``x``) when given.

        At x == x_ref the estimate is ``cache.full_grad`` up to rounding,
        not exactly as in the generic path: the stored derivatives come
        from the full pass's margins (``X @ x``), while each row here
        recomputes its margin with ``np.dot``, and the two may round
        differently.  Making them agree would cost a Python sum per row."""
        est = np.empty(self.dim) if out is None else out
        if self.lam:
            np.subtract(x, cache.x_ref, out=est)
            est *= self.lam
            est += cache.full_grad
        else:
            np.copyto(est, cache.full_grad)
        return self._add_rows(est, x, idx, 1.0 / len(idx), cache.residuals)

    def accuracy(self, x: np.ndarray) -> float:
        """Fraction of examples with sign(<a, x>) matching the label."""
        pred = np.where(self._times(x) >= 0, 1.0, -1.0)
        return float((pred == self.labels).mean())


class TwoLayerNet(FiniteSumObjective):
    """Two-layer softplus network with multiclass cross-entropy loss.

    Both layers are dense.  Parameters are flattened as [W1, b1, W2, b2];
    the l2 regularizer covers all parameters including biases.  No
    closed-form global smoothness exists, so ``smoothness`` always raises; a
    run without an lr takes L as twice :func:`smoothness_probe` at scale 0.1
    over 200 pairs, a heuristic whose 400 component gradients no ledger
    charges.

    The features are held as one dense (n, d) float64 matrix built from the
    Dataset's CSR arrays, with 0-based labels; no reference to the Dataset
    is kept.  A single forward/backward kernel,
    :meth:`block_value_and_gradient`, serves one component (a one-row block)
    and the base class's full pass (blocks of ``_BLOCK_ROWS`` rows).
    """

    def __init__(self, dataset: Dataset, hidden_dim: int = 64,
                 class_count: int = 10, lam: float = 0.0):
        if dataset.binary:
            raise ValueError("network objective needs a multiclass dataset")
        if lam < 0:
            raise ValueError("lambda must be non-negative")
        if dataset.labels.size and dataset.labels.max() > class_count:
            raise ValueError("dataset labels exceed class_count")
        self.n = len(dataset)
        self.input_dim = dataset.dim
        self._X = np.zeros((self.n, self.input_dim))
        self._X[np.repeat(np.arange(self.n), np.diff(dataset.indptr)),
                dataset.col_idx] = dataset.val
        self._y = dataset.labels - 1
        self.hidden_dim = int(hidden_dim)
        self.class_count = int(class_count)
        self.lam = float(lam)
        self.dim = (self.hidden_dim * (self.input_dim + 1)
                    + self.class_count * (self.hidden_dim + 1))
        # flat layout offsets: [W1 | b1 | W2 | b2]
        h, f, c = self.hidden_dim, self.input_dim, self.class_count
        self._o_b1 = h * f
        self._o_w2 = self._o_b1 + h
        self._o_b2 = self._o_w2 + c * h

    @property
    def smoothness(self) -> float:
        raise ValueError(
            "network smoothness is not known in closed form; pass an lr, or "
            "probe it with smoothness_probe")

    def initial_point(self, rng: RandomSource) -> np.ndarray:
        """Random start W1 ~ N(0, 1/input_dim), W2 ~ N(0, 1/hidden), biases 0.

        All-zero parameters give every hidden unit the same output, and on
        balanced labels they are an exact stationary point."""
        params = np.zeros(self.dim)
        w1, _, w2, _ = self.unpack(params)
        w1[:] = rng.normals(w1.shape) / np.sqrt(self.input_dim)
        w2[:] = rng.normals(w2.shape) / np.sqrt(self.hidden_dim)
        return params

    def unpack(self, params: np.ndarray):
        h, f, c = self.hidden_dim, self.input_dim, self.class_count
        w1 = params[:self._o_b1].reshape(h, f)
        b1 = params[self._o_b1:self._o_w2]
        w2 = params[self._o_w2:self._o_b2].reshape(c, h)
        b2 = params[self._o_b2:]
        return w1, b1, w2, b2

    def component(self, i: int, params: np.ndarray) -> tuple[float, np.ndarray]:
        if not 1 <= i <= self.n:
            raise IndexError(f"component index {i} out of range 1..{self.n}")
        return self.block_value_and_gradient(slice(i - 1, i), params)

    def block_value_and_gradient(self, rows, params):
        # np.dot, not matmul: for one row it skips about 10 us of overhead.
        feats, labels = self._X[rows], self._y[rows]
        count = labels.shape[0]
        w1, b1, w2, b2 = self.unpack(params)
        z1 = np.dot(feats, w1.T)                            # (rows, hidden)
        z1 += b1
        a1 = np.logaddexp(0.0, z1)                          # softplus
        z2 = np.dot(a1, w2.T)                               # (rows, classes)
        z2 += b2
        # Cross-entropy and softmax are invariant to a per-row shift.
        z2 -= np.maximum.reduce(z2, axis=1, keepdims=True)
        dz2 = np.exp(z2)
        norm = np.add.reduce(dz2, axis=1, keepdims=True)
        # flat positions of each row's label logit
        picks = np.arange(0, z2.size, self.class_count) + labels
        value = np.add.reduce(np.log(norm).ravel() - z2.ravel()[picks]) / count

        # Backward pass on the mean: dz2 carries the 1/count of every row
        # (a one-row block, the component path, skips the exact /1).
        dz2 /= norm
        dz2.ravel()[picks] -= 1.0
        if count > 1:
            dz2 /= count
        dz1 = np.dot(dz2, w2)
        # softplus'(z) = 1/(1+e^-z) = exp(z - softplus(z)), from the a1 at
        # hand in two ufunc calls (relative error about |z| * 2^-53).
        z1 -= a1
        dz1 *= np.exp(z1, out=z1)

        grad = np.empty_like(params)
        gw1, gb1, gw2, gb2 = self.unpack(grad)
        np.dot(dz1.T, feats, out=gw1)
        np.add.reduce(dz1, axis=0, out=gb1)
        np.dot(dz2.T, a1, out=gw2)
        np.add.reduce(dz2, axis=0, out=gb2)
        if self.lam:
            value = value + 0.5 * self.lam * sq_norm(params)
            grad += self.lam * params
        return float(value), grad


def smoothness_probe(obj, trials: int, rng: RandomSource,
                     scale: float = 1.0) -> float:
    """Largest ratio ||g_i(x) - g_i(y)|| / ||x - y|| over ``trials`` random
    components i and standard-normal points x, y = x + scale N(0, I); a
    pair at zero distance is skipped before its gradients.  A lower bound
    on any smoothness constant of obj, not a guarantee of one."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    worst = 0.0
    for _ in range(trials):
        i = rng.draw_index(obj.n)
        x = rng.normals(obj.dim)
        y = x + scale * rng.normals(obj.dim)
        dist = np.sqrt(sq_norm(x - y))
        if dist == 0.0:
            continue
        gx = obj.component(i, x)[1]
        gy = obj.component(i, y)[1]
        worst = max(worst, np.sqrt(sq_norm(gx - gy)) / dist)
    return worst


def synthetic_dataset(n: int, d: int, seed: int) -> Dataset:
    """Deterministic synthetic binary Dataset: Gaussian features
    N(0, 0.5^2 I) shifted by 1 along the first axis, labels +1 with
    probability 0.75 and -1 otherwise.

    The Gaussian has a nonzero mean along the first axis and the label coin
    is biased, so the landscape carries an order-one gradient and genuine
    loss curvature along the descent path from the origin; otherwise (zero
    mean, fair coin) every margin starts at the sigmoid's inflection point
    and desk-scale runs never leave the flat region.  Rows are scaled to
    unit norm so the smoothness constant is exactly L_loss + lam.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = RandomSource(seed)
    feats = 0.5 * rng.normals((n, d))
    feats[:, 0] += 1.0
    norms = np.linalg.norm(feats, axis=1)
    norms[norms == 0] = 1.0
    feats /= norms[:, None]
    labels = np.where(rng.uniforms(n) < 0.75, 1, -1)
    return Dataset.from_csr(np.arange(0, n * d + 1, d),
                            np.tile(np.arange(d), n), feats.ravel(), labels,
                            dim=d)


def make_synthetic(n: int, d: int, seed: int, loss: LossKind | None = None,
                   lam: float = 1e-3) -> ErmObjective:
    """ERM over :func:`synthetic_dataset`, sigmoid loss by default."""
    return ErmObjective(synthetic_dataset(n, d, seed),
                        loss or LossKind("sigmoid"), lam=lam)
