"""Series container, strict CSV ingestion, and the bundled datasets.

This module owns the rules for period labels: :func:`_labels` checks
them (whole numbers, strictly increasing, one per value) for
:class:`Series`, :func:`~greycast.models.fit` and model files, and
:func:`_extended_labels` continues them past the data for forecasts and
the reference tables.  Its :func:`_whole` is the whole-number rule for
labels and for every count the package takes.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DatasetError, TooFewSamples

__all__ = ["Series", "parse_dataset", "load_bundled", "BUNDLED_DATASETS"]

BUNDLED_DATASETS = ("oilfield", "settlement", "nuclear")


def _whole(value) -> int:
    """``int(value)`` for a value that already is a whole number, and not a bool."""
    try:
        out = int(value)
    except OverflowError:  # an infinite float
        out = None
    if out is None or out != value or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return out


def _labels(labels, n_total: int) -> tuple[int, ...]:
    """One whole-number label per value, strictly increasing.  All labels
    are checked at once; only a bad one sends them through :func:`_whole`
    one by one, which names the first."""
    labels = tuple(labels)
    try:
        out = tuple(map(int, labels))
    except (OverflowError, ValueError, TypeError):
        out = None
    if out != labels or bool in set(map(type, labels)):
        out = tuple(map(_whole, labels))
    if len(out) != n_total:
        raise ValueError(f"got {len(out)} labels for {n_total} values")
    if not all(map(operator.lt, out, out[1:])):
        raise ValueError("labels must be strictly increasing")
    return out


def _modal_stride(labels) -> int:
    if len(labels) < 2:
        return 1
    counts = Counter(b - a for a, b in zip(labels, labels[1:]))
    # Most common stride; ties go to the smaller one.
    stride, _ = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return stride


def _extended_labels(labels, horizon: int) -> list[int]:
    """``labels`` followed by ``horizon`` more, spaced by the most common stride."""
    labels = list(labels)
    stride = _modal_stride(labels)
    last = labels[-1]
    return labels + [last + stride * (i + 1) for i in range(horizon)]


@dataclass(frozen=True, eq=False)
class Series:
    """Ordered observations with integer period labels (year or day index),
    checked by :func:`_labels`."""

    labels: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be 1-d")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", _labels(self.labels, values.size))

    def __len__(self) -> int:
        return len(self.labels)


def parse_dataset(path) -> Series:
    """Strict parse of a ``period,value`` CSV.

    Rules: exact ``period,value`` header; ``#`` lines and blank lines
    skipped; integer periods, strictly increasing; strictly positive
    decimal values; at least 4 rows.  Trailing whitespace and CRLF line
    endings are tolerated.  Violations raise with the line number.
    """
    labels: list[int] = []
    values: list[float] = []
    header_seen = False
    try:
        fh = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line.lower() != "period,value":
                    raise DatasetError(
                        f"{path}:{lineno}: expected header 'period,value', got {line!r}"
                    )
                header_seen = True
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise DatasetError(
                    f"{path}:{lineno}: expected 2 fields, got {len(parts)}"
                )
            try:
                period = int(parts[0])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: period {parts[0]!r} is not an integer"
                ) from None
            try:
                value = float(parts[1])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: value {parts[1]!r} is not a number"
                ) from None
            if not np.isfinite(value):
                raise DatasetError(f"{path}:{lineno}: value {parts[1]!r} is not finite")
            if value <= 0:
                raise DatasetError(
                    f"{path}:{lineno}: values must be strictly positive, got {parts[1]}"
                )
            if labels and period <= labels[-1]:
                raise DatasetError(
                    f"{path}:{lineno}: periods must be strictly increasing "
                    f"({period} after {labels[-1]})"
                )
            labels.append(period)
            values.append(value)
    if not header_seen:
        raise DatasetError(f"{path}: missing 'period,value' header")
    if len(values) < 4:
        raise TooFewSamples(f"{path}: dataset has {len(values)} rows, need at least 4")
    return Series(labels=tuple(labels), values=np.array(values))


def load_bundled(name: str) -> Series:
    """Load one of the packaged datasets by name."""
    if name not in BUNDLED_DATASETS:
        raise ValueError(
            f"unknown dataset {name!r} (expected one of {BUNDLED_DATASETS})"
        )
    ref = resources.files(__package__).joinpath("data", f"{name}.csv")
    with resources.as_file(ref) as path:
        return parse_dataset(path)
