import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from svrgkit.core import RandomSource
from svrgkit.dataio import Dataset, parse_libsvm
from svrgkit.losses import ALL_ERM_LOSSES, LossKind
from svrgkit.objectives import (_BLOCK_ROWS, ErmObjective, TwoLayerNet,
                                make_synthetic, smoothness_probe)
from svrgkit.optim import svrg_estimator
from svrgkit.verify import fd_gradient

from quadratic import QuadraticObjective


def loss_id(kind):
    """The config spelling of a loss: 'sigmoid', 'hinge:0.1', ..."""
    return kind.name if kind.gamma is None else f"{kind.name}:{kind.gamma:g}"


def dense_dataset(rows, labels, binary=True):
    """Dataset over dense rows; from_csr drops their zeros."""
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    return Dataset.from_csr(np.arange(0, n * d + 1, d),
                            np.tile(np.arange(d), n), rows.ravel(), labels,
                            dim=d, binary=binary)


def erm_from_rows(rows, labels, loss, lam=0.0):
    return ErmObjective(dense_dataset(rows, labels), loss, lam=lam)


class TestErmComponent:
    def test_logistic_at_origin(self):
        obj = erm_from_rows([[1.0, 0.0]], [1], LossKind("logistic"))
        value, grad = obj.component(1, np.array([0.0, 0.0]))
        assert math.isclose(value, math.log(2), rel_tol=1e-15)
        assert np.allclose(grad, [-0.5, 0.0], atol=1e-15)

    def test_flat_branch_leaves_only_regularizer(self):
        # margin 2 sits on the smoothed hinge's flat branch
        obj = erm_from_rows([[2.0, 0.0]], [1], LossKind("hinge", 1.0),
                            lam=1.0)
        value, grad = obj.component(1, np.array([1.0, 0.0]))
        assert np.allclose(grad, [1.0, 0.0], atol=1e-15)
        assert math.isclose(value, 0.5, rel_tol=1e-15)  # lam/2 * |x|^2

    def test_squared_loss_at_origin(self):
        obj = erm_from_rows([[0.5, -1.5]], [-1], LossKind("squared"))
        value, grad = obj.component(1, np.array([0.0, 0.0]))
        assert value == 0.5
        assert np.allclose(grad, [0.5, -1.5], atol=1e-15)  # -l * a

    def test_index_out_of_range(self):
        obj = erm_from_rows([[1.0]], [1], LossKind("logistic"))
        with pytest.raises(IndexError):
            obj.component(2, np.zeros(1))
        with pytest.raises(IndexError):
            obj.component(0, np.zeros(1))

    def test_batch_index_out_of_range(self):
        labels = [1, -1]
        sparse = erm_from_rows([[1.0, 0.0], [0.0, 2.0]], labels,
                               LossKind("logistic"))
        dense = erm_from_rows([[1.0, 0.5], [-0.5, 2.0]], labels,
                              LossKind("logistic"))
        assert sparse._X is None and dense._X is not None
        for obj in (sparse, dense):
            for batch in ([0], [3], [1, 0], [2, 3]):
                with pytest.raises(IndexError):
                    obj.batch_mean_grad(batch, np.zeros(2))


class TestFullValueAndGradient:
    def test_two_component_hand_average(self):
        # f1(x) = x^2/2, f2(x) = x^2/2 + x at x = 1
        obj = QuadraticObjective([1.0, 1.0], offsets=[[0.0], [1.0]], dim=1)
        value, grad = obj.full_value_and_gradient(np.array([1.0]))
        assert value == 1.0
        assert grad[0] == 1.5

    def test_equals_mean_of_components(self):
        rng = np.random.default_rng(0)
        obj = make_synthetic(20, 4, seed=1, lam=1e-2)
        for _ in range(5):
            x = rng.normal(size=4)
            value, grad = obj.full_value_and_gradient(x)
            comps = [obj.component(i, x) for i in range(1, obj.n + 1)]
            mean_v = np.mean([c[0] for c in comps])
            mean_g = np.mean([c[1] for c in comps], axis=0)
            assert math.isclose(value, mean_v, rel_tol=1e-12)
            assert np.linalg.norm(grad - mean_g) <= 1e-12 * (
                1 + np.linalg.norm(grad))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ErmObjective(Dataset.from_csr([0], [], [], [], dim=3),
                         LossKind("logistic"))


class TestErmSmoothness:
    def test_formula(self):
        obj = erm_from_rows([[1.0, 1.0]], [1], LossKind("logistic"), lam=0.1)
        assert math.isclose(obj.smoothness, 0.25 * 2 + 0.1,
                            rel_tol=1e-15)

    def test_scaled_sigmoid_norm25(self):
        obj = erm_from_rows([[3.0, 4.0]], [1], LossKind("sigmoid"))
        assert math.isclose(obj.smoothness, 25.0, rel_tol=1e-15)

    def test_degenerate_all_zero_features(self):
        obj = erm_from_rows([[0.0, 0.0]], [1], LossKind("logistic"))
        assert obj.smoothness == 0.0  # callers must reject L = 0

    def test_reorder_invariance(self):
        rows = [[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]]
        labels = [1, -1, 1]
        a = erm_from_rows(rows, labels, LossKind("sigmoid"), lam=1e-3)
        b = erm_from_rows(rows[::-1], labels[::-1], LossKind("sigmoid"),
                          lam=1e-3)
        x = np.array([0.3, -0.7])
        va, ga = a.full_value_and_gradient(x)
        vb, gb = b.full_value_and_gradient(x)
        assert math.isclose(va, vb, rel_tol=1e-12)
        assert np.allclose(ga, gb, rtol=1e-12)


class TestTwoLayerNet:
    def test_param_vector_length(self):
        ds = dense_dataset([[1.0, 0.0, 0.0]], [1], binary=False)
        net = TwoLayerNet(ds, hidden_dim=4, class_count=2)
        assert net.dim == 4 * (3 + 1) + 2 * (4 + 1)

    def test_zero_params_loss_is_log_classcount(self):
        ds = dense_dataset([[0.5, -1.0], [2.0, 0.0]], [1, 2], binary=False)
        net = TwoLayerNet(ds, hidden_dim=3, class_count=2)
        for i in (1, 2):
            value, _ = net.component(i, np.zeros(net.dim))
            assert math.isclose(value, math.log(2), rel_tol=1e-12)
        ds10 = dense_dataset([[1.0]], [7], binary=False)
        net10 = TwoLayerNet(ds10, hidden_dim=2, class_count=10)
        value, _ = net10.component(1, np.zeros(net10.dim))
        assert math.isclose(value, math.log(10), rel_tol=1e-12)

    def test_gradient_matches_finite_differences_342(self):
        rng = RandomSource(5)
        ds = dense_dataset(rng.normals((6, 3)), [1, 2, 1, 2, 1, 2],
                           binary=False)
        net = TwoLayerNet(ds, hidden_dim=4, class_count=2, lam=1e-2)
        for trial in range(5):
            p = 0.7 * rng.normals(net.dim)
            _, grad = net.full_value_and_gradient(p)
            fd = fd_gradient(lambda q: net.full_value_and_gradient(q)[0], p)
            err = np.linalg.norm(fd - grad) / (1 + np.linalg.norm(grad))
            assert err <= 1e-5

    def test_zero_features_zero_params_gradient(self):
        # with empty features and zero parameters, only output-layer
        # entries are nonzero: dz2 through the constant softplus activation
        ds = dense_dataset([[0.0, 0.0]], [2], binary=False)
        net = TwoLayerNet(ds, hidden_dim=3, class_count=2, lam=0.5)
        value, grad = net.component(1, np.zeros(net.dim))
        w1, b1, w2, b2 = net.unpack(grad)
        assert np.array_equal(w1, np.zeros((3, 2)))
        assert np.array_equal(b1, np.zeros(3))
        # softmax is uniform; true class 2: dz2 = (0.5, -0.5)
        assert np.allclose(b2, [0.5, -0.5], atol=1e-15)
        assert np.allclose(w2, np.outer([0.5, -0.5],
                                        np.full(3, math.log(2))), atol=1e-15)

    def test_label_out_of_range(self):
        ds = dense_dataset([[1.0]], [2], binary=False)
        with pytest.raises(ValueError):
            TwoLayerNet(ds, hidden_dim=2, class_count=1)

    def test_smoothness_requires_estimate(self):
        ds = dense_dataset([[1.0]], [1], binary=False)
        net = TwoLayerNet(ds, hidden_dim=2, class_count=2)
        with pytest.raises(ValueError, match="pass an lr.*smoothness_probe"):
            _ = net.smoothness
        est = smoothness_probe(net, 20, RandomSource(0))
        assert est > 0 and smoothness_probe(net, 20, RandomSource(0)) == est
        # probing stores nothing on the network
        with pytest.raises(ValueError, match="pass an lr"):
            _ = net.smoothness


class TestMakeSynthetic:
    def test_deterministic(self):
        a = make_synthetic(4, 2, seed=7)
        b = make_synthetic(4, 2, seed=7)
        assert np.array_equal(a._X, b._X)
        assert np.array_equal(a.labels, b.labels)
        assert make_synthetic(4, 2, seed=8).labels.shape == (4,)

    def test_smoothness_matches_formula(self):
        obj = make_synthetic(30, 6, seed=1, lam=1e-2)
        recomputed = (np.max((obj._X ** 2).sum(axis=1)) * 1.0 + 1e-2)
        assert math.isclose(obj.smoothness, recomputed, rel_tol=1e-12)

    def test_unbiasedness_identity(self):
        obj = make_synthetic(12, 3, seed=2, lam=1e-3)
        x = RandomSource(3).normals(3)
        _, grad = obj.full_value_and_gradient(x)
        mean_g = np.mean([obj.component(i, x)[1]
                          for i in range(1, obj.n + 1)], axis=0)
        assert np.linalg.norm(grad - mean_g) <= 1e-12 * (
            1 + np.linalg.norm(grad))

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            make_synthetic(0, 3, seed=1)


class TestSnapshotCache:
    def test_reconstruction_matches_component_gradient(self):
        obj = make_synthetic(15, 4, seed=3, lam=1e-2)
        rng = RandomSource(4)
        ref, x = rng.normals(4), rng.normals(4)
        cache = obj.build_snapshot(ref)
        assert cache.mode == "stored"
        recompute = obj.build_snapshot(ref, mode="recompute")
        for i in range(1, obj.n + 1):
            direct = svrg_estimator(recompute, obj, x, [i])
            cached = svrg_estimator(cache, obj, x, [i])
            assert np.linalg.norm(direct - cached) <= 1e-12 * (
                1 + np.linalg.norm(direct))

    def test_full_grad_matches_fresh_evaluation(self):
        obj = make_synthetic(15, 4, seed=3, lam=1e-2)
        ref = RandomSource(5).normals(4)
        cache = obj.build_snapshot(ref)
        value, grad = obj.full_value_and_gradient(ref)
        assert np.linalg.norm(cache.full_grad - grad) <= 1e-12 * (
            1 + np.linalg.norm(grad))
        assert math.isclose(cache.value, value, rel_tol=1e-12)

    def test_estimate_at_the_snapshot_is_its_full_gradient(self):
        # The generic estimator returns full_grad exactly at x == x_ref; the
        # fused kernel recomputes each margin with np.dot against stored
        # derivatives from X @ x_ref, so it agrees up to rounding.
        for seed in range(20):
            obj = make_synthetic(64, 5, seed=seed)
            ref = RandomSource(seed).normals(5)
            stored = obj.build_snapshot(ref)
            recompute = obj.build_snapshot(ref, mode="recompute")
            bound = 1e-12 * np.linalg.norm(stored.full_grad)
            for i in range(1, obj.n + 1):
                assert np.array_equal(svrg_estimator(recompute, obj, ref, [i]),
                                      recompute.full_grad)
                fused = svrg_estimator(stored, obj, ref, [i])
                assert np.linalg.norm(fused - stored.full_grad) <= bound

    def test_net_snapshot_is_recompute_mode(self):
        ds = dense_dataset([[1.0, 0.5], [0.0, 2.0]], [1, 2], binary=False)
        net = TwoLayerNet(ds, hidden_dim=2, class_count=2)
        cache = net.build_snapshot(np.zeros(net.dim))
        assert cache.mode == "recompute"
        with pytest.raises(ValueError):
            net.build_snapshot(np.zeros(net.dim), mode="stored")

    def test_erm_forced_recompute(self):
        obj = make_synthetic(8, 2, seed=1)
        cache = obj.build_snapshot(np.zeros(2), mode="recompute")
        assert cache.mode == "recompute"
        assert cache.residuals is None
        stored = obj.build_snapshot(np.zeros(2))
        x = RandomSource(2).normals(2)
        assert np.allclose(svrg_estimator(cache, obj, x, [3]),
                           svrg_estimator(stored, obj, x, [3]))


class TestComponentSmoothnessInvariant:
    @pytest.mark.parametrize("loss", ALL_ERM_LOSSES, ids=loss_id)
    def test_component_gradients_are_l_lipschitz(self, loss):
        obj = make_synthetic(25, 5, seed=9, loss=loss, lam=1e-2)
        rng = RandomSource(10)
        L = obj.smoothness
        for _ in range(200):
            i = rng.draw_index(obj.n)
            x = rng.normals(5)
            y = rng.normals(5)
            gx = obj.component(i, x)[1]
            gy = obj.component(i, y)[1]
            assert np.linalg.norm(gx - gy) <= L * np.linalg.norm(x - y) + 1e-9

    @pytest.mark.parametrize("loss", ALL_ERM_LOSSES, ids=loss_id)
    def test_analytic_gradient_matches_fd(self, loss):
        obj = make_synthetic(10, 4, seed=11, loss=loss, lam=1e-2)
        rng = RandomSource(12)
        for _ in range(5):
            x = rng.normals(4)
            _, grad = obj.full_value_and_gradient(x)
            fd = fd_gradient(lambda p: obj.full_value_and_gradient(p)[0], x)
            assert np.linalg.norm(fd - grad) / (1 + np.linalg.norm(grad)) \
                <= 1e-5


def random_csr_dataset(n, d, per_row, seed):
    """Binary Dataset with ``per_row`` random columns per row."""
    rng = np.random.default_rng(seed)
    cols = np.concatenate([np.sort(rng.choice(d, per_row, replace=False))
                           for _ in range(n)])
    return Dataset.from_csr(np.arange(0, n * per_row + 1, per_row), cols,
                            rng.normal(size=n * per_row),
                            rng.choice([-1, 1], size=n), dim=d)


class TestErmSharesDatasetArrays:
    def test_full_rows_view_the_values_as_a_matrix(self):
        ds = dense_dataset([[1.0, 2.0], [3.0, -4.0], [0.5, 6.0]], [1, -1, 1])
        obj = ErmObjective(ds, LossKind("logistic"))
        assert obj._X.shape == (3, 2)
        assert np.shares_memory(obj._X, ds.val)
        assert np.shares_memory(obj.labels, ds.labels)

    def test_views_the_int64_csr_arrays(self):
        ds = random_csr_dataset(50, 300, 20, seed=1)
        obj = ErmObjective(ds, LossKind("logistic"), lam=1e-3)
        assert obj._X is None
        for held, own, dtype in ((obj._cols, ds.col_idx, np.intp),
                                 (obj._indptr, ds.indptr, np.intp),
                                 (obj._vals, ds.val, np.float64),
                                 (obj.labels, ds.labels, np.int64)):
            assert held.dtype == dtype
            assert np.shares_memory(held, own)

    def test_retains_only_float_labels(self):
        n = 500
        ds = random_csr_dataset(n, 300, 20, seed=4)
        tracemalloc.start()
        try:
            # the first call fills one-time caches
            objs = [ErmObjective(ds, LossKind("logistic"))]
            before = tracemalloc.get_traced_memory()[0]
            objs.append(ErmObjective(ds, LossKind("logistic")))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The float64 labels and a few small objects; a stored row index
        # per nonzero would be 8 * nnz = 80,000 bytes.
        assert retained <= 8 * n + 4096

    def test_tune_sized_objectives_retain_no_index_copy(self):
        # A tune grid builds one objective per cell over one training split.
        n, per_row = 400, 24
        ds = random_csr_dataset(n, 2000, per_row, seed=2)
        nnz = n * per_row
        tracemalloc.start()
        try:
            objs = [ErmObjective(ds, LossKind("logistic"), lam=1e-4)]
            before = tracemalloc.get_traced_memory()[0]
            objs += [ErmObjective(ds, LossKind("logistic"), lam=1e-4 * k)
                     for k in range(2, 13)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(objs) == 12
        # An int32 copy of the column indices alone would be 4 * nnz bytes.
        assert retained / 11 < nnz


@st.composite
def csr_instances(draw):
    """A random CSR Dataset with empty rows or every row full, n down to 1
    and a dim that may exceed the largest column, and a vector for each
    side of the product."""
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    feats = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, (n, dim))
    zero_share = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    feats[rng.random((n, dim)) < zero_share] = 0.0
    feats[:, dim - draw(st.integers(0, dim - 1)):] = 0.0
    rows, cols = np.nonzero(feats)
    ds = Dataset.from_csr(np.searchsorted(rows, np.arange(n + 1)), cols,
                          feats[rows, cols], rng.choice([-1, 1], n), dim=dim)
    return ds, rng.normal(size=dim), rng.normal(size=n)


@settings(max_examples=300, deadline=None)
@given(case=csr_instances())
def test_csr_products_equal_scipy_bit_for_bit(case):
    ds, x, v = case
    obj = ErmObjective(ds, LossKind("squared"))
    if ds.val.size == len(ds) * ds.dim:
        # every row full: the dense layout, whose products are BLAS ones
        dense = ds.val.reshape(len(ds), ds.dim)
        assert np.array_equal(obj._times(x), dense @ x)
        assert np.array_equal(obj._times(v, transpose=True), dense.T @ v)
        assert obj.smoothness == float((dense ** 2).sum(axis=1).max())
        return
    X = sp.csr_array((ds.val, ds.col_idx, ds.indptr), shape=(len(ds), ds.dim))
    assert np.array_equal(obj._times(x), X @ x)
    assert np.array_equal(obj._times(v, transpose=True), X.T @ v)
    # squared loss is 1-smooth: the bound is the largest row norm itself
    assert obj.smoothness == float(X.multiply(X).sum(axis=1).max())


@st.composite
def erm_batches(draw):
    """A small ERM instance with full rows (the dense layout) or sparse ones,
    two points and a 1-based batch of any size up to n, repeated rows
    allowed."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    feats = rng.normal(size=(n, d))
    labels = rng.choice([-1, 1], size=n)
    loss = draw(st.sampled_from(ALL_ERM_LOSSES))
    lam = draw(st.sampled_from([0.0, 1e-2]))
    if not draw(st.booleans()):
        feats[rng.random((n, d)) < 0.4] = 0.0   # empty rows included
    obj = erm_from_rows(feats, labels, loss, lam=lam)
    b = draw(st.integers(1, n))
    batch = draw(st.lists(st.integers(1, n), min_size=b, max_size=b))
    return obj, rng.normal(size=d), rng.normal(size=d), batch


def assert_close(a, b):
    assert np.linalg.norm(a - b) <= 1e-12 * (1 + np.linalg.norm(b))


@settings(max_examples=200, deadline=None)
@given(case=erm_batches())
def test_row_loops_agree_with_components(case):
    obj, x, ref, batch = case
    stored = obj.build_snapshot(ref)
    recompute = obj.build_snapshot(ref, mode="recompute")
    assert_close(svrg_estimator(stored, obj, x, batch),
                 svrg_estimator(recompute, obj, x, batch))
    assert_close(obj.batch_mean_grad(batch, x),
                 np.mean([obj.component(i, x)[1] for i in batch], axis=0))
    full = obj.full_value_and_gradient(x)[1]
    singletons = range(1, obj.n + 1)
    assert_close(np.mean([svrg_estimator(stored, obj, x, [i])
                          for i in singletons], axis=0), full)
    assert_close(np.mean([obj.batch_mean_grad([i], x) for i in singletons],
                         axis=0), full)


@st.composite
def net_instances(draw):
    """A small dense network over random data (up to three blocks of a
    full pass) and a parameter point."""
    n, d = draw(st.integers(1, 2 * _BLOCK_ROWS + 1)), draw(st.integers(1, 6))
    hidden, classes = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    feats = rng.normal(size=(n, d))
    feats[rng.random((n, d)) < 0.3] = 0.0
    ds = dense_dataset(feats, rng.integers(1, classes + 1, n), binary=False)
    net = TwoLayerNet(ds, hidden_dim=hidden, class_count=classes,
                      lam=draw(st.sampled_from([0.0, 1e-2])))
    return net, rng.normal(size=net.dim)


@settings(max_examples=200, deadline=None)
@given(case=net_instances())
def test_net_full_pass_is_the_mean_of_components(case):
    net, p = case
    value, grad = net.full_value_and_gradient(p)
    rows = [net.component(i, p) for i in range(1, net.n + 1)]
    mean_value = math.fsum(v for v, _ in rows) / net.n
    assert abs(value - mean_value) <= 1e-12 * (1 + abs(mean_value))
    assert_close(grad, np.mean([g for _, g in rows], axis=0))


def test_net_retains_only_dense_features(tmp_path):
    n, d, classes = 300, 20, 5
    rng = np.random.default_rng(3)
    path = tmp_path / "mc.libsvm"
    path.write_text("".join(
        f"{rng.integers(1, classes + 1)} " + " ".join(
            f"{j}:{v!r}" for j, v in enumerate(rng.normal(size=d).tolist(), 1))
        + "\n" for _ in range(n)))

    def build():
        return TwoLayerNet(parse_libsvm(path, binary=False), hidden_dim=4,
                           class_count=classes)

    tracemalloc.start()
    try:
        nets = [build()]    # first-call caches of the parse path
        before = tracemalloc.get_traced_memory()[0]
        nets.append(build())
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert nets[1].n == n
    # The (n, d) float64 features, n int64 labels and a few small objects;
    # the Dataset's CSR arrays alone would be 16 bytes per entry.
    assert retained <= n * d * 8 + 8 * n + 8192
