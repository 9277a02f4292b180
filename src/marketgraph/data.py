"""Ingestion and the preprocessing chain for multi-index price data, the CSV
dialect of every table, and the one writer that puts every artifact on disk.

The canonical stage order is fixed: rebasing adjustment, natural log,
chronological split, z-score normalization with training-split statistics,
windowing. Every transform returns a new frame; nothing mutates in place,
and each stage can be hashed for the audit report.
"""
from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .errors import POSITIVE, POSITIVE_FINITE, Checked, ConfigError, DataError, ShapeError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Dated, column-named observation matrix with no missing cells."""

    dates: tuple[date, ...]
    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "columns", tuple(self.columns))
        if v.ndim != 2 or v.shape != (len(self.dates), len(self.columns)):
            raise ShapeError(f"values shape {v.shape} does not match {len(self.dates)} dates x {len(self.columns)} columns")
        if len(set(self.columns)) != len(self.columns):
            raise DataError("column names must be unique")
        if not np.all(np.isfinite(v)):
            raise DataError("frame contains non-finite values")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError(f"dates must be strictly increasing; {a} is not before {b}")

    @property
    def num_rows(self) -> int:
        return len(self.dates)

    @property
    def num_series(self) -> int:
        return len(self.columns)

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.dates[start:stop], self.columns, self.values[start:stop].copy())


def frame_hash(frame: TimeSeriesFrame) -> str:
    """Content hash covering dates, column names, and every value bit."""
    return _dated_hash(frame, _date_text(frame.dates))


def _date_text(dates: tuple[date, ...]) -> bytes:
    return "|".join(d.isoformat() for d in dates).encode()


def _dated_hash(frame: TimeSeriesFrame, date_text: bytes) -> str:
    """`frame_hash` of `frame`, given `_date_text` of its dates."""
    h = hashlib.sha256()
    h.update(date_text)
    h.update("|".join(frame.columns).encode())
    h.update(frame.values.tobytes())
    return h.hexdigest()


def _parse_date(text: str, where: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"{where}: unparseable date {text!r} (expected YYYY-MM-DD)") from None


def read_csv_rows(path) -> list[list[str]]:
    """The cells of every row of the CSV file at `path`, a leading UTF-8
    byte-order mark skipped; DataError naming the path for text that is not
    UTF-8 or that the csv module refuses."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from None


def _plain_lines(path) -> list[str]:
    """The lines of the CSV file at `path`, each of which, split at its commas,
    is its csv.reader row, or []: UTF-8 text with two or more body lines, each
    with the header's comma count, none longer than the csv module's field
    limit, and none of the characters below."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except UnicodeDecodeError:
        return []
    # Blank lines at the end, which the row loop skips, are cut off.
    lines = text.rstrip("\r\n").splitlines()
    commas = lines[0].count(",") if len(lines) > 2 else 0
    # A quote needs the csv module, which refuses a NUL; numpy strips \x1c-\x1f around
    # a number as space and float() does not; and splitlines() also breaks lines at
    # \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029, where csv.reader does not.
    if (not commas or any(map(text.__contains__, '"\0\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029'))
            or any(line.count(",") != commas for line in lines)
            or max(map(len, lines)) > csv.field_size_limit()):
        return []
    return lines


def _parse_csv(path) -> tuple[TimeSeriesFrame, int]:
    lines = _plain_lines(path)
    rows = [lines[0].split(",")] if lines else read_csv_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(f"{path}: header must be 'date,<name1>,...', got {rows[0]!r}")
    columns, width = tuple(header[1:]), len(header)
    if len(set(columns)) != len(columns):
        repeated = next(name for i, name in enumerate(columns) if name in columns[:i])
        raise DataError(f"{path}: the header names {repeated!r} more than once")

    try:
        if not lines:
            raise ValueError("not a plain file")
        # numpy reads a cell with PyOS_string_to_double, as float() does, or refuses it.
        matrix = np.loadtxt(lines[1:], delimiter=",", comments=None, usecols=range(1, width),
                            dtype=np.float64, ndmin=2)
        firsts = [line.partition(",")[0] for line in lines[1:]]
        dates = list(map(date.fromisoformat, map(str.strip, firsts)))
        if not np.isfinite(matrix).all():
            raise ValueError("non-finite cell")
        dropped = 0
    except ValueError:
        # Only a file numpy's reader cannot take pays for the row loop, which drops
        # incomplete rows and names a bad line. A plain file has no character where
        # splitting at commas and csv.reader part ways, so its lines are not re-read.
        body = [line.split(",") for line in lines[1:]] if lines else rows[1:]
        dates, matrix, dropped = _convert_rows(path, body, columns)
    if any(d1 >= d2 for d1, d2 in zip(dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates, matrix = [dates[i] for i in order], matrix[order]
        for d1, d2 in zip(dates, dates[1:]):
            if d1 == d2:
                raise DataError(f"{path}: duplicate date {d1.isoformat()}")
    if len(dates) < 2:
        raise DataError(f"{path}: fewer than 2 usable rows after dropping incomplete ones")
    if dropped:
        log.info("%s: dropped %d row(s) with missing cells", path, dropped)
    return TimeSeriesFrame(tuple(dates), columns, matrix), dropped


def _convert_rows(path, body: list[list[str]], columns) -> tuple[list[date], np.ndarray, int]:
    """The dates and values of `body` row by row, and the count of rows
    dropped for a blank value cell; DataError naming the first bad line."""
    dates, values = [], []  # values row after row: one flat list keeps no per-row list alive
    dropped, width = 0, len(columns) + 1
    for lineno, row in enumerate(body, start=2):
        if not any(map(str.strip, row)):
            continue
        where = f"{path}: line {lineno}"
        if len(row) != width:
            raise DataError(f"{where} has {len(row)} cells, expected {width}")
        if not all(map(str.strip, row[1:])):  # a blank value cell drops its row, whatever its date
            dropped += 1
            continue
        dates.append(_parse_date(row[0], where))  # a bad date is named before a bad number
        for name, cell in zip(columns, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{where}: unparseable number {cell!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{where}: non-finite number {cell!r} in column {name!r}")
            values.append(value)
    return dates, np.array(values).reshape(len(dates), width - 1), dropped


def load_csv(path) -> TimeSeriesFrame:
    """Read a `date,<name1>,...` CSV into a frame.

    Rows are sorted ascending by date, duplicate dates are rejected, and rows
    with any blank cell are dropped (count logged; the pipeline report also
    records it).
    """
    return _parse_csv(path)[0]


@contextmanager
def atomic_write(path):
    """A UTF-8 text handle (newline="") whose contents replace `path` when the
    block ends. It writes beside the target, then swaps the file in, so a
    failed write never leaves a truncated file in place of a good one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: Sequence, rows) -> str:
    """`header` and `rows` as CSV text, in the dialect `load_csv` reads."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def matrix_csv(corner: str, labels: Sequence[str], matrix: np.ndarray) -> str:
    """A square matrix as CSV text: `corner`, then the labels, as the header;
    one row per label, every value written in full precision (`repr`)."""
    matrix = np.asarray(matrix)
    if matrix.shape != (len(labels), len(labels)):
        raise ShapeError(f"matrix shape {matrix.shape} does not match {len(labels)} labels")
    rows = ([label, *(repr(float(v)) for v in row)] for label, row in zip(labels, matrix))
    return csv_text([corner, *labels], rows)


def trace_csv(dates, labels, actual: np.ndarray, predicted: np.ndarray) -> str:
    """Actual and predicted values as CSV text: one row per date, and a
    `<label>_actual` and `<label>_predicted` column per series (`repr`)."""
    actual = np.asarray(actual)
    predicted = np.asarray(predicted)
    if actual.shape != predicted.shape or actual.shape != (len(dates), len(labels)):
        raise DataError(f"trace shapes {actual.shape}/{predicted.shape} do not match "
                        f"{len(dates)} dates x {len(labels)} series")
    header = ["date", *(f"{label}_{part}" for label in labels for part in ("actual", "predicted"))]
    rows = ([d.isoformat() if hasattr(d, "isoformat") else str(d),
             *(repr(float(v)) for pair in zip(a, p) for v in pair)]
            for d, a, p in zip(dates, actual, predicted))
    return csv_text(header, rows)


@dataclass(frozen=True)
class RebaseRule(Checked):
    """Undo an exchange redenomination: divide pre-cutoff rows of one column."""

    column: str
    cutoff: date
    divisor: float = field(metadata=POSITIVE_FINITE)


def apply_rebase_rules(frame: TimeSeriesFrame, rules: Sequence[RebaseRule]) -> TimeSeriesFrame:
    """`frame` with each rule, in order, dividing its column on the leading rows dated before its cutoff."""
    for i, rule in enumerate(rules):
        if rule.column not in frame.columns:
            raise DataError(f"rebase[{i}].column {rule.column!r} is not a series of the panel")
        values = frame.values.copy()
        values[:sum(d < rule.cutoff for d in frame.dates), frame.columns.index(rule.column)] /= rule.divisor
        frame = TimeSeriesFrame(frame.dates, frame.columns, values)
    return frame


def log_transform(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Elementwise natural log; every value must be positive."""
    if np.any(frame.values <= 0):
        row, col = np.argwhere(frame.values <= 0)[0]
        raise DataError(
            f"log transform needs positive values; {frame.columns[col]} at "
            f"{frame.dates[row].isoformat()} is {frame.values[row, col]}"
        )
    return TimeSeriesFrame(frame.dates, frame.columns, np.log(frame.values))


@dataclass(frozen=True)
class SplitSpec(Checked):
    """Chronological train/validation/test fractions."""

    train: float = field(default=0.6, metadata=POSITIVE_FINITE)
    validation: float = field(default=0.2, metadata=POSITIVE_FINITE)
    test: float = field(default=0.2, metadata=POSITIVE_FINITE)

    def __post_init__(self):
        super().__post_init__()
        total = self.train + self.validation + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {total}")


def chronological_split(frame: TimeSeriesFrame, spec: SplitSpec = SplitSpec()
                        ) -> tuple[TimeSeriesFrame, TimeSeriesFrame, TimeSeriesFrame]:
    """Contiguous, order-preserving split: floor, floor, remainder."""
    n = frame.num_rows
    if n < 3:
        raise DataError(f"need at least 3 rows to split, have {n}")
    n_train = int(np.floor(spec.train * n))
    n_val = int(np.floor(spec.validation * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DataError(f"split of {n} rows leaves an empty partition ({n_train}/{n_val}/{n_test})")
    return (
        frame.slice_rows(0, n_train),
        frame.slice_rows(n_train, n_train + n_val),
        frame.slice_rows(n_train + n_val, n),
    )


@dataclass(frozen=True)
class NormStats:
    """Per-column center/scale, fit on the training split only."""

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        n = len(self.columns)
        if self.mean.shape != (n,) or self.std.shape != (n,):
            raise ShapeError(f"mean/std must be length-{n} vectors")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise DataError("mean/std must be finite")
        if np.any(self.std <= 0):
            bad = self.columns[int(np.argmax(self.std <= 0))]
            raise DataError(f"zero-variance column {bad!r} cannot be normalized")


def normalize(frame: TimeSeriesFrame, stats: NormStats) -> TimeSeriesFrame:
    if frame.columns != stats.columns:
        raise DataError("frame columns do not match normalization stats")
    return TimeSeriesFrame(frame.dates, frame.columns, (frame.values - stats.mean) / stats.std)


def invert_predictions(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Map model outputs, the series on their last axis, to prices: exp after de-normalization.

    The forward chain is log then normalize, so inversion composes the two
    inverses in the opposite order.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1:] != stats.mean.shape:
        raise ShapeError(f"last axis of {values.shape} does not match {len(stats.columns)} stats columns")
    return np.exp(values * stats.std + stats.mean)


@dataclass(frozen=True)
class WindowSpec(Checked):
    """Input length P and forecast horizon Q, in steps."""

    P: int = field(default=30, metadata=POSITIVE)
    Q: int = field(default=1, metadata=POSITIVE)


@dataclass(frozen=True)
class WindowSet:
    """Stacked supervised samples: x[m] covers P steps, y[m] the next Q."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 3 or self.y.ndim != 3:
            raise ShapeError("windows must be [count, N, P] and [count, N, Q]")
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[1] != self.y.shape[1]:
            raise ShapeError(f"inconsistent window stacks: {self.x.shape} vs {self.y.shape}")

    def __len__(self) -> int:
        return self.x.shape[0]


def require_finite(values: np.ndarray, axes: Sequence[str] = ("row", "series")) -> None:
    """DataError naming the first NaN or infinite cell, its index labelled by `axes`."""
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        cell = ", ".join(f"{axis} {i}" for axis, i in zip(axes, bad))
        raise DataError(f"non-finite value {values[tuple(bad)]} at {cell}")


def window_array(x, series: int | None = None, steps: int = 1) -> np.ndarray:
    """Stacked input windows as a float64 [batch, N, P] array: the one check of
    every forecast's input.

    ShapeError for any other rank, for a series count other than `series`
    (when given) or for fewer than `steps` steps; DataError for a NaN or an
    infinity anywhere in the windows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected [batch, series, steps] windows, got {x.shape}")
    if series is not None and x.shape[1] != series:
        raise ShapeError(f"windows hold {x.shape[1]} series, the model was fitted on {series}")
    if x.shape[2] < steps:
        # `steps` can be a receptive field too many digits long to format.
        raise ShapeError(f"window of {x.shape[2]} steps is shorter than the model reads")
    require_finite(x, ("window", "series", "step"))
    return x


def make_windows(frame: TimeSeriesFrame, spec: WindowSpec) -> WindowSet:
    """Slide a (P in, Q out) window over one split, one window per start row.

    Splits are windowed independently, so no sample ever straddles a split
    boundary. The count is rows - P - Q + 1. Both stacks are read-only views
    of `frame.values`, not copies: x[m, n, t] is values[m + t, n].
    """
    if frame.num_rows < spec.P + spec.Q:
        raise DataError(f"{frame.num_rows} rows cannot fit a window of P+Q={spec.P + spec.Q}")
    spans = np.lib.stride_tricks.sliding_window_view(frame.values, spec.P + spec.Q, axis=0)  # [count, N, span]
    return WindowSet(x=spans[..., :spec.P], y=spans[..., spec.P:])


def descriptive_stats(frame: TimeSeriesFrame) -> dict[str, dict[str, float]]:
    """Per-column summary: size, mean, median, std, min, max, skewness, kurtosis.

    std is the sample estimate (n-1 denominator); skewness and kurtosis are
    the standardized central moments m3/s^3 and m4/s^4 (a normal sample gives
    kurtosis near 3).
    """
    if frame.num_rows < 2:
        raise DataError("descriptive stats need at least 2 rows")
    out: dict[str, dict[str, float]] = {}
    for j, name in enumerate(frame.columns):
        col = frame.values[:, j]
        s = col.std(ddof=1)
        if s == 0:
            raise DataError(f"constant column {name!r}: skewness/kurtosis undefined")
        centered = col - col.mean()
        out[name] = {
            "size": float(col.size),
            "mean": float(col.mean()),
            "median": float(np.median(col)),
            "std": float(s),
            "min": float(col.min()),
            "max": float(col.max()),
            "skewness": float(np.mean(centered ** 3) / s ** 3),
            "kurtosis": float(np.mean(centered ** 4) / s ** 4),
        }
    return out


@dataclass(frozen=True)
class PipelineResult:
    """Everything downstream of ingestion, plus the audit report."""

    train: TimeSeriesFrame
    validation: TimeSeriesFrame
    test: TimeSeriesFrame
    stats: NormStats
    train_windows: WindowSet
    validation_windows: WindowSet
    test_windows: WindowSet
    report: dict


def run_pipeline(source, window_spec: WindowSpec, split_spec: SplitSpec = SplitSpec(),
                 rebase_rules: Sequence[RebaseRule] = ()) -> PipelineResult:
    """Apply the full stage chain to a CSV path or an already-loaded frame.

    Stage order is fixed: adjust, log, split, normalize with train stats,
    window. The report records a content hash after each whole-frame stage,
    the dropped-row count, split indices, and the normalization statistics.
    """
    if isinstance(source, TimeSeriesFrame):
        frame, dropped = source, 0
        origin = "<frame>"
    else:
        frame, dropped = _parse_csv(source)
        origin = str(source)

    # Adjust, log and normalize change values only, so the dates of the whole
    # frame and of the train split are each formatted once.
    dates = _date_text(frame.dates)
    stages: list[dict] = [{"stage": "load", "hash": _dated_hash(frame, dates)}]
    frame = apply_rebase_rules(frame, rebase_rules)
    stages.append({"stage": "adjust", "hash": _dated_hash(frame, dates)})
    frame = log_transform(frame)
    stages.append({"stage": "log", "hash": _dated_hash(frame, dates)})

    train, val, test = chronological_split(frame, split_spec)
    train_dates = _date_text(train.dates)
    stages.append({"stage": "split", "hash": _dated_hash(train, train_dates)})
    stats = NormStats(train.columns, train.values.mean(axis=0), train.values.std(axis=0))
    train_n, val_n, test_n = (normalize(f, stats) for f in (train, val, test))
    stages.append({"stage": "normalize", "hash": _dated_hash(train_n, train_dates)})

    windows = tuple(make_windows(f, window_spec) for f in (train_n, val_n, test_n))
    digest = hashlib.sha256()  # over each stack's C-order bytes, a block of windows at a time
    for stack in (s for ws in windows for s in (ws.x, ws.y)):
        for i in range(0, len(stack), 64):
            digest.update(np.ascontiguousarray(stack[i:i + 64]))
    stages.append({"stage": "window", "hash": digest.hexdigest()})

    result = PipelineResult(
        train=train_n,
        validation=val_n,
        test=test_n,
        stats=stats,
        train_windows=windows[0],
        validation_windows=windows[1],
        test_windows=windows[2],
        report={
            "input": {"path": origin, "rows": frame.num_rows, "dropped_rows": dropped,
                      "columns": list(frame.columns)},
            "stages": stages,
            "split": {"train_rows": train.num_rows, "validation_rows": val.num_rows,
                      "test_rows": test.num_rows},
            "norm_stats": {"columns": list(stats.columns),
                           "mean": [float(m) for m in stats.mean],
                           "std": [float(s) for s in stats.std]},
            "window": {"P": window_spec.P, "Q": window_spec.Q, "stride": 1},
        },
    )
    return result
