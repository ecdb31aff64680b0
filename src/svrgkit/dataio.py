"""LibSVM ingestion, label flipping, train/validation splits, trace CSV.

The two stable on-disk formats live here: LibSVM text lines
("label idx:val idx:val ...", indices 1-based strictly increasing) and the
trace CSV with header ``passes,objective,grad_norm_sq,wall_seconds,epoch``.
Floats are written with ``repr`` so a round trip through text is exact.

A :class:`Dataset` is built only by :meth:`Dataset.from_csr`, which holds
the row contract (columns in range and strictly increasing within a row,
finite values, no explicit zeros); the parser, subsets, splits, label
flips and every library caller go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import RandomSource

TRACE_HEADER = "passes,objective,grad_norm_sq,wall_seconds,epoch"
# LibSVM's own feature index is a C int, and so is its class label.
_MAX_INDEX = 2 ** 31 - 1


def bundled_dataset_path(name: str = "a9a_like_2000") -> Path:
    """Path of a sample dataset shipped with the package (tests/demos only;
    fetch full-size datasets from the LibSVM site yourself)."""
    path = resources.files("svrgkit").joinpath(f"data/{name}.libsvm")
    return Path(str(path))


class LibsvmFormatError(ValueError):
    """Malformed LibSVM input; message names the offending line."""


class RowError(ValueError):
    """A CSR row breaks the row contract; ``row`` is its 0-based position."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row + 1}: {detail}")
        self.row, self.detail = row, detail


@dataclass
class TraceRecord:
    """One convergence checkpoint of an optimizer run."""

    passes: float
    objective: float
    grad_norm_sq: float
    wall_seconds: float
    epoch: int


class Dataset:
    """Labeled sparse examples backing a finite-sum objective.

    Binary datasets carry labels in {-1, +1}; multiclass ones in {1..C}.
    Feature storage is CSR-style (indptr/col_idx/val) with 0-based
    columns; per-example access returns 1-based indices (the LibSVM
    convention).  :meth:`from_csr` is the only constructor.  ``coding``
    maps each label of the file the data were parsed from to its label
    code; label flips keep it, and other data have None.
    """

    @classmethod
    def from_csr(cls, indptr, col_idx, val, labels, dim: int | None = None,
                 binary: bool = True, coding: dict | None = None,
                 ) -> "Dataset":
        """Dataset over CSR arrays with 0-based columns.

        The one place the row contract is checked: within each row the
        columns lie in [0, dim) and strictly increase, and the values are
        finite.  Explicit zeros are then dropped (``dim`` defaults to one
        past the largest column left).  A row breaking the contract raises
        :class:`RowError` for the first such row; its message numbers rows
        and indices from 1, as :meth:`example` does.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        cols = np.asarray(col_idx, dtype=np.int64)
        vals = np.asarray(val, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if (cols.ndim != 1 or cols.shape != vals.shape or labels.ndim != 1
                or indptr.shape != (labels.size + 1,) or indptr[0] != 0
                or indptr[-1] != cols.size or np.any(np.diff(indptr) < 0)):
            raise ValueError("CSR arrays disagree: indptr must rise from 0 "
                             "to the entry count, one row per label")
        rows = np.repeat(np.arange(labels.size), np.diff(indptr))
        keep = vals != 0.0
        if dim is None:
            dim = int(cols[keep].max()) + 1 if keep.any() else 0
        falling = (np.diff(cols, prepend=0) <= 0) & (
            np.diff(rows, prepend=-1) == 0)
        bad = (cols < 0) | falling | (keep & (cols >= dim)) | ~np.isfinite(vals)
        if bad.any():
            at = int(np.argmax(bad))
            index = int(cols[at]) + 1
            if index < 1:
                detail = f"index {index} < 1"
            elif falling[at]:
                detail = f"indices not strictly increasing at {index}"
            elif index > dim:
                detail = f"index {index} > dim {dim}"
            else:
                detail = f"non-finite value {float(vals[at])!r}"
            raise RowError(int(rows[at]), detail)
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            cols, vals = cols[keep], vals[keep]
        if binary:
            if not np.all(np.isin(labels, (-1, 1))):
                raise ValueError("binary dataset labels must be in {-1,+1}")
        elif labels.size and labels.min() < 1:
            raise ValueError("multiclass labels must be >= 1")
        ds = cls.__new__(cls)
        ds.indptr, ds.col_idx, ds.val, ds.labels = indptr, cols, vals, labels
        ds.dim, ds.binary, ds.coding = int(dim), bool(binary), coding
        return ds

    def __len__(self) -> int:
        return int(self.labels.size)

    def example(self, i: int) -> tuple[np.ndarray, np.ndarray, int]:
        """1-based example index -> its 1-based feature indices, its
        feature values (a view) and its label."""
        lo, hi = self.indptr[i - 1], self.indptr[i]
        return self.col_idx[lo:hi] + 1, self.val[lo:hi], int(self.labels[i - 1])

    def subset(self, rows0: np.ndarray) -> "Dataset":
        """New dataset from 0-based row positions, preserving dim/mode."""
        rows0 = np.asarray(rows0, dtype=np.int64)
        starts = self.indptr[rows0]
        lengths = self.indptr[rows0 + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Dataset.from_csr(indptr, self.col_idx[take], self.val[take],
                                self.labels[rows0], self.dim, self.binary)

    def class_count(self) -> int:
        if self.binary:
            return 2
        return int(self.labels.max()) if self.labels.size else 0


def _parse_label(tok: str, lineno: int, binary: bool) -> float:
    try:
        label = float(tok)
    except ValueError:
        raise LibsvmFormatError(f"line {lineno}: unparsable label {tok!r}") from None
    if not np.isfinite(label):
        raise LibsvmFormatError(f"line {lineno}: non-finite label {tok!r}")
    if not binary and abs(label) > _MAX_INDEX:
        raise LibsvmFormatError(f"line {lineno}: class label {tok!r} outside "
                                f"-{_MAX_INDEX}..{_MAX_INDEX}")
    return label


def _label_coding(raw: list[float], binary: bool) -> dict[float, int]:
    """Each distinct label's code: its own value when every label is in the
    mode's range, else its rank in sort order."""
    distinct = sorted(set(raw))
    if binary:
        if set(distinct) <= {-1.0, 1.0}:
            return {v: int(v) for v in distinct}
        if len(distinct) != 2:
            raise LibsvmFormatError(
                f"binary mode needs exactly 2 distinct labels, got {distinct}")
        return {distinct[0]: -1, distinct[1]: 1}
    if all(v == int(v) and v >= 1 for v in distinct):
        return {v: int(v) for v in distinct}
    return {v: c + 1 for c, v in enumerate(distinct)}


def _check_text(line: str, lineno: int) -> None:
    """int() and float() also read '_' separators and non-ASCII digits and
    spaces, so the numbers of a line, before any '#', must be ASCII with
    no '_'; a comment may hold any text, but not bytes that are not
    UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise LibsvmFormatError(f"line {lineno}: bytes that are not "
                                "UTF-8") from None
    data = line.split("#", 1)[0]
    if "_" in data or not data.isascii():
        raise LibsvmFormatError(f"line {lineno}: '_' or a non-ASCII "
                                f"character in {data.strip()!r}")


def parse_libsvm(source, binary: bool = True, dim: int | None = None,
                 coding: dict | None = None) -> Dataset:
    """Parse LibSVM text (path, file object, or iterable of lines).

    Only converts text to numbers (ASCII, with no '_', checked by
    :func:`_check_text`) and bounds the indices to 1..2^31-1;
    :meth:`Dataset.from_csr` checks the rows, and a row it rejects is
    reported by its line.  Labels outside the declared mode's range are
    remapped by sort order of the distinct observed labels.  Given another
    file's :attr:`Dataset.coding`, the labels take its codes instead, and
    a label it lacks is an error naming its line.
    """
    if isinstance(source, (str, Path)):
        # bytes that are not UTF-8 decode to lone surrogates, which
        # _check_text reports by line
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            return parse_libsvm(fh, binary=binary, dim=dim, coding=coding)

    raw_labels: list[float] = []
    linenos, indptr, idxs, vals = [], [0], [], []
    for lineno, line in enumerate(source, start=1):
        if "_" in line or not line.isascii():
            _check_text(line, lineno)
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        raw_labels.append(_parse_label(toks[0], lineno, binary))
        linenos.append(lineno)
        for tok in toks[1:]:
            # no ':' leaves val_s empty, which float() rejects
            idx_s, _, val_s = tok.partition(":")
            try:
                idxs.append(int(idx_s))
                vals.append(float(val_s))
            except ValueError:
                raise LibsvmFormatError(
                    f"line {lineno}: malformed token {tok!r}") from None
        indptr.append(len(idxs))

    # One pass each over the indices; only a bad file looks for its line.
    if idxs and (min(idxs) < 1 or max(idxs) > _MAX_INDEX):
        at = next(k for k, i in enumerate(idxs) if not 1 <= i <= _MAX_INDEX)
        row = int(np.searchsorted(indptr, at, side="right")) - 1
        raise LibsvmFormatError(f"line {linenos[row]}: index {idxs[at]} "
                                f"outside 1..{_MAX_INDEX}")
    if coding is None:
        coding = _label_coding(raw_labels, binary)
    try:
        labels = [coding[v] for v in raw_labels]
    except KeyError as e:
        raise LibsvmFormatError(
            f"line {linenos[raw_labels.index(e.args[0])]}: label "
            f"{e.args[0]!r} is not among the coded labels {sorted(coding)}",
        ) from None
    try:
        return Dataset.from_csr(indptr, np.array(idxs, dtype=np.int64) - 1,
                                vals, labels, dim=dim, binary=binary,
                                coding=coding)
    except RowError as e:
        raise LibsvmFormatError(f"line {linenos[e.row]}: {e.detail}") from None


def write_libsvm(ds: Dataset, sink) -> None:
    """Write a dataset back out as LibSVM text."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as fh:
            write_libsvm(ds, fh)
            return
    cuts = ds.indptr[1:-1]
    for label, idx, vals in zip(ds.labels.tolist(),
                                np.split(ds.col_idx + 1, cuts),
                                np.split(ds.val, cuts)):
        parts = [f"{label:+d}" if ds.binary else str(label)]
        parts += [f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())]
        sink.write(" ".join(parts) + "\n")


def round_half_up(x: float) -> int:
    """Platform-independent rounding for counts (0.5 always rounds up)."""
    return int(np.floor(x + 0.5))


def flip_labels(ds: Dataset, fraction: float, rng: RandomSource) -> Dataset:
    """Negate the labels of round(fraction*n) examples chosen uniformly.

    Binary datasets only; the input dataset is left unmodified.
    """
    if not ds.binary:
        raise ValueError("label flipping needs a binary dataset")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    k = round_half_up(fraction * len(ds))
    chosen = rng.permutation(len(ds))[:k]
    labels = ds.labels.copy()
    labels[chosen] = -labels[chosen]
    return Dataset.from_csr(ds.indptr, ds.col_idx, ds.val, labels, ds.dim,
                            coding=ds.coding)


def split(ds: Dataset, train_fraction: float, rng: RandomSource,
          ) -> tuple[Dataset, Dataset]:
    """Random partition into (train, validation) of sizes round(f*n), rest."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    if len(ds) < 2:
        raise ValueError("need at least 2 examples to split")
    n_train = round_half_up(train_fraction * len(ds))
    n_train = min(max(n_train, 1), len(ds) - 1)
    perm = rng.permutation(len(ds))
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


def write_trace(records, sink, header_comments: list[str] | None = None) -> None:
    """Emit trace CSV; raises if the passes column is not non-decreasing."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as fh:
            write_trace(records, fh, header_comments)
            return
    records = list(records)
    passes = [r.passes for r in records]
    if any(b < a for a, b in zip(passes, passes[1:])):
        raise ValueError("trace passes column must be non-decreasing")
    for line in header_comments or ():
        sink.write(f"# {line}\n")
    sink.write(TRACE_HEADER + "\n")
    for r in records:
        sink.write(f"{r.passes!r},{r.objective!r},{r.grad_norm_sq!r},"
                   f"{r.wall_seconds!r},{r.epoch}\n")


def read_trace(source) -> list[TraceRecord]:
    """Parse a trace CSV produced by :func:`write_trace`."""
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            return read_trace(fh)
    records = []
    saw_header = False
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != TRACE_HEADER:
                raise ValueError(f"unexpected trace header {line!r}")
            saw_header = True
            continue
        p, o, g, w, e = line.split(",")
        records.append(TraceRecord(float(p), float(o), float(g), float(w), int(e)))
    return records
