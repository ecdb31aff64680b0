import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svrgkit.core import RandomSource
from svrgkit.dataio import (Dataset, LibsvmFormatError, TraceRecord,
                            bundled_dataset_path, flip_labels, parse_libsvm,
                            read_trace, round_half_up, split, write_libsvm,
                            write_trace)

# One LibSVM row: a label and {1-based index: value}, explicit zeros included.
_ROW = st.tuples(
    st.sampled_from([-1, 1]),
    st.dictionaries(st.integers(1, 40),
                    st.one_of(st.just(0.0), st.just(-0.0),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=8))


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm(["+1 1:0.5 3:2"])
        assert len(ds) == 1 and ds.dim == 3
        idx, vals, label = ds.example(1)
        assert label == 1
        assert (idx.tolist(), vals.tolist()) == ([1, 3], [0.5, 2.0])

    def test_label_only_line(self):
        ds = parse_libsvm(["-1"])
        idx, vals, label = ds.example(1)
        assert label == -1 and len(idx) == len(vals) == 0

    def test_malformed_token_names_line(self):
        with pytest.raises(LibsvmFormatError, match="line 1"):
            parse_libsvm(["1 a:b"])
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(LibsvmFormatError, match="line 2"):
                parse_libsvm(["+1 1:1", f"-1 2:{bad}"])

    def test_bad_label_names_line(self):
        with pytest.raises(LibsvmFormatError, match="line 2"):
            parse_libsvm(["+1 1:1", "what 1:1"])

    def test_non_finite_label_names_line(self):
        # Not a label in either mode: binary would remap the other rows
        # around it, multiclass cannot make it an integer.
        for binary in (True, False):
            for bad in ("nan", "inf", "-inf"):
                with pytest.raises(LibsvmFormatError,
                                   match=f"line 2: non-finite label '{bad}'"):
                    parse_libsvm(["1 1:1", f"{bad} 1:2"], binary=binary)

    def test_huge_class_label_names_line(self):
        # 1e300 is an integer-valued float, which multiclass mode would
        # keep as a class past int64; a class label, like an index, is a
        # C int.
        for bad in ("1e300", "-1e300", "2147483648"):
            with pytest.raises(LibsvmFormatError,
                               match=f"line 2: class label '{bad}' outside"):
                parse_libsvm(["1 1:1", f"{bad} 1:2", "2 1:3"], binary=False)
        ds = parse_libsvm(["1 1:1", "2147483647 1:2"], binary=False)
        assert ds.labels.tolist() == [1, 2 ** 31 - 1]
        # binary mode remaps any two finite labels to -1/+1
        assert parse_libsvm(["1e300 1:1", "2 1:2"]).labels.tolist() == [1, -1]

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(LibsvmFormatError, match="line 1"):
            parse_libsvm(["+1 3:1 2:1"])
        with pytest.raises(LibsvmFormatError, match="line 1"):
            parse_libsvm(["+1 2:1 2:5"])

    def test_zero_index_rejected(self):
        with pytest.raises(LibsvmFormatError, match="index 0"):
            parse_libsvm(["+1 0:1"])

    def test_index_bounded_by_a_c_int(self):
        assert parse_libsvm(["+1 2147483647:1"]).dim == 2 ** 31 - 1
        with pytest.raises(LibsvmFormatError,
                           match="line 3: index 2147483648 outside"):
            parse_libsvm(["+1 1:1", "", "-1 2:1 2147483648:1"])

    def test_scientific_notation_values(self):
        ds = parse_libsvm(["-1 2:1.5e-3 7:-2E2"])
        idx, vals, _ = ds.example(1)
        assert (idx.tolist(), vals.tolist()) == ([2, 7], [0.0015, -200.0])

    def test_blank_lines_and_comments_skipped(self):
        ds = parse_libsvm(["", "# comment", "+1 1:1 # trailing", "  ", "-1"])
        assert len(ds) == 2

    def test_binary_label_remap_by_sort_order(self):
        ds = parse_libsvm(["0 1:1", "2 1:1", "0 2:1"])
        assert ds.labels.tolist() == [-1, 1, -1]

    def test_another_files_coding(self):
        # A one-class file takes the codes of the file it is coded by, and
        # its label flips keep them.
        coding = parse_libsvm(["1 1:1", "2 1:1"]).coding
        assert coding == {1.0: -1, 2.0: 1}
        for rows, codes in ((["1 1:1", "1 2:1"], [-1, -1]),
                            (["2 2:1"], [1])):
            ds = parse_libsvm(rows, coding=coding)
            assert ds.labels.tolist() == codes and ds.coding == coding
            assert flip_labels(ds, 1.0, RandomSource(0)).coding == coding
        with pytest.raises(LibsvmFormatError, match="line 3: label 3.0"):
            parse_libsvm(["2 1:1", "", "3 1:1"], coding=coding)

    def test_binary_three_labels_rejected(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm(["0 1:1", "1 1:1", "2 1:1"])

    def test_multiclass_remap(self):
        ds = parse_libsvm(["0 1:1", "7 1:1", "3 1:1"], binary=False)
        assert ds.labels.tolist() == [1, 3, 2]
        assert ds.class_count() == 3

    def test_round_trip_idempotent(self):
        lines = ["+1 1:0.5 3:2.25", "-1 2:-1.5", "+1"]
        ds = parse_libsvm(lines)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        ds2 = parse_libsvm(buf.getvalue().splitlines(), dim=ds.dim)
        buf2 = io.StringIO()
        write_libsvm(ds2, buf2)
        assert buf.getvalue() == buf2.getvalue()
        assert ds2.labels.tolist() == ds.labels.tolist()

    def test_bundled_sample_parses(self):
        ds = parse_libsvm(bundled_dataset_path())
        assert len(ds) == 2000 and ds.dim == 123
        assert set(np.unique(ds.labels)) == {-1, 1}


def _csr_by_rows(rows) -> dict[str, np.ndarray]:
    """CSR arrays of ``_ROW`` rows built one row at a time: 0-based
    columns in increasing order, explicit zeros dropped."""
    indptr, cols, vals = [0], [], []
    for _, feats in rows:
        kept = [i for i in sorted(feats) if feats[i] != 0.0]
        cols += [i - 1 for i in kept]
        vals += [feats[i] for i in kept]
        indptr.append(len(cols))
    return {"indptr": np.array(indptr, dtype=np.int64),
            "col_idx": np.array(cols, dtype=np.int64),
            "val": np.array(vals, dtype=np.float64),
            "labels": np.array([label for label, _ in rows], dtype=np.int64)}


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), max_size=20))
def test_csr_path_matches_per_row_reference(rows, picks):
    lines = [" ".join([f"{label:+d}"] + [f"{i}:{feats[i]!r}"
                                         for i in sorted(feats)])
             for label, feats in rows]
    ds = parse_libsvm(lines)
    ref = _csr_by_rows(rows)
    dim = int(ref["col_idx"].max()) + 1 if ref["col_idx"].size else 0
    picks = [p % len(rows) for p in picks]
    pairs = [(ds, ref), (ds.subset(np.array(picks, dtype=np.int64)),
                         _csr_by_rows([rows[p] for p in picks]))]
    for got, want in pairs:
        for name, b in want.items():
            a = getattr(got, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.dim, got.binary) == (dim, True)


class TestFromCsr:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="row 1: .* increasing at 2"):
            Dataset.from_csr([0, 2], [2, 1], [1.0, 1.0], [1])

    def test_rejects_zero_index(self):
        # column -1 is LibSVM index 0; it would wrap to the last column
        with pytest.raises(ValueError, match="row 2: index 0 < 1"):
            Dataset.from_csr([0, 1, 2], [0, -1], [1.0, 1.0], [1, -1], dim=3)

    def test_drops_explicit_zeros(self):
        ds = Dataset.from_csr([0, 3, 4], [0, 1, 2, 1], [1.0, 0.0, 2.0, -0.0],
                              [1, -1])
        assert ds.indptr.tolist() == [0, 2, 2]
        assert (ds.col_idx.tolist(), ds.val.tolist()) == ([0, 2], [1.0, 2.0])
        assert ds.dim == 3

    def test_rejects_duplicate_column(self):
        # both entries of row 1 would be read by a component, and only the
        # last one by the full pass
        with pytest.raises(ValueError, match="row 1: .* increasing at 2"):
            Dataset.from_csr([0, 2, 3], [1, 1, 0], [1.0, 2.0, 1.0], [1, -1],
                             dim=3)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="row 2: non-finite"):
                Dataset.from_csr([0, 1, 2], [0, 1], [1.0, bad], [1, -1])

    def test_rejects_column_beyond_dim(self):
        with pytest.raises(ValueError, match="row 1: index 4 > dim 3"):
            Dataset.from_csr([0, 1], [3], [1.0], [1], dim=3)

    def test_rejects_inconsistent_arrays(self):
        for indptr, cols in (([0, 2], [0]), ([0, 1, 2], [0, 1]),
                             ([1, 1], [0])):
            with pytest.raises(ValueError, match="CSR arrays"):
                Dataset.from_csr(indptr, cols, np.ones(len(cols)), [1])


class TestFlipLabels:
    def test_exact_count(self):
        ds = parse_libsvm([f"+1 1:{i + 1}" for i in range(8)])
        out = flip_labels(ds, 0.25, RandomSource(0))
        assert (out.labels != ds.labels).sum() == 2

    def test_zero_fraction_identity(self):
        ds = parse_libsvm(["+1 1:1", "-1 2:1"])
        out = flip_labels(ds, 0.0, RandomSource(0))
        assert out.labels.tolist() == ds.labels.tolist()

    def test_deterministic_per_seed(self):
        ds = parse_libsvm([f"+1 1:{i + 1}" for i in range(20)])
        a = flip_labels(ds, 0.3, RandomSource(5))
        b = flip_labels(ds, 0.3, RandomSource(5))
        assert a.labels.tolist() == b.labels.tolist()

    def test_double_flip_restores(self):
        ds = parse_libsvm([f"+1 1:{i + 1}" for i in range(16)])
        once = flip_labels(ds, 0.25, RandomSource(3))
        twice = flip_labels(once, 0.25, RandomSource(3))
        assert twice.labels.tolist() == ds.labels.tolist()

    def test_original_unmodified(self):
        ds = parse_libsvm(["+1 1:1", "+1 2:1"])
        before = ds.labels.copy()
        flip_labels(ds, 1.0, RandomSource(0))
        assert np.array_equal(ds.labels, before)

    def test_multiclass_rejected(self):
        ds = parse_libsvm(["1 1:1", "2 1:1", "3 1:1"], binary=False)
        with pytest.raises(ValueError):
            flip_labels(ds, 0.5, RandomSource(0))


class TestSplit:
    def test_four_fifths_sizes(self):
        ds = parse_libsvm([f"+1 1:{i + 1}" for i in range(10)])
        train, val = split(ds, 0.8, RandomSource(0))
        assert len(train) == 8 and len(val) == 2

    def test_partition_property(self):
        ds = parse_libsvm([f"+1 1:{i + 1}" for i in range(17)])
        train, val = split(ds, 0.6, RandomSource(1))
        got = sorted(train.val.tolist() + val.val.tolist())
        assert got == sorted(ds.val.tolist())
        assert len(train) + len(val) == len(ds)

    def test_deterministic(self):
        ds = parse_libsvm([f"+1 1:{i + 1}" for i in range(12)])
        a = split(ds, 0.75, RandomSource(9))
        b = split(ds, 0.75, RandomSource(9))
        assert a[0].val.tolist() == b[0].val.tolist()

    def test_too_small_rejected(self):
        ds = parse_libsvm(["+1 1:1"])
        with pytest.raises(ValueError):
            split(ds, 0.5, RandomSource(0))

    def test_bad_fraction_rejected(self):
        ds = parse_libsvm(["+1 1:1", "-1 2:1"])
        for f in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split(ds, f, RandomSource(0))


class TestRounding:
    def test_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(3.5) == 4
        assert round_half_up(2.4) == 2
        assert round_half_up(0.0) == 0


class TestTraceCsv:
    def records(self):
        return [TraceRecord(0.0, 5.196152422706632, 1.0 / 3.0, 0.001, 0),
                TraceRecord(2.0, 1.2345678901234567e-8, 9.87e-13, 0.459, 1)]

    def test_header_only_for_empty(self):
        buf = io.StringIO()
        write_trace([], buf)
        assert buf.getvalue() == \
            "passes,objective,grad_norm_sq,wall_seconds,epoch\n"

    def test_round_trip_exact(self):
        buf = io.StringIO()
        write_trace(self.records(), buf)
        back = read_trace(io.StringIO(buf.getvalue()))
        for orig, got in zip(self.records(), back):
            assert got.passes == orig.passes
            assert got.objective == orig.objective
            assert got.grad_norm_sq == orig.grad_norm_sq
            assert got.wall_seconds == orig.wall_seconds
            assert got.epoch == orig.epoch

    def test_decreasing_passes_rejected(self):
        records = [TraceRecord(2.0, 1.0, 1.0, 0.0, 0),
                   TraceRecord(1.0, 1.0, 1.0, 0.0, 1)]
        with pytest.raises(ValueError):
            write_trace(records, io.StringIO())

    def test_comments_skipped_on_read(self):
        buf = io.StringIO()
        write_trace(self.records(), buf, header_comments=["config: {}"])
        assert buf.getvalue().startswith("# config: {}\n")
        assert len(read_trace(io.StringIO(buf.getvalue()))) == 2
