"""Evaluation criteria for fitted-vs-observed series.

Percentage metrics are stored as percent values (3.14 means 3.14%);
serialisation also carries the raw ratios.  The training/holdout split
is controlled by nu: RMSPEPR runs over k = 1..nu, RMSPEPO over
k = nu+1..n, RMSPE over the full range.  The k = 1 term is included in
RMSPEPR even though anchored models make it zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import _whole
from .errors import LengthMismatch, NonFiniteResult, ZeroObserved

__all__ = ["EvaluationReport", "evaluate", "relative_errors"]


@dataclass(frozen=True)
class EvaluationReport:
    rmspepr: float
    rmspepo: float | None
    rmspe: float
    ia: float
    ae: float
    mae: float
    nu: int
    n: int

    def to_dict(self) -> dict:
        """All eight fields, with raw ratios alongside the percent values."""
        return {
            "rmspepr_pct": self.rmspepr,
            "rmspepo_pct": self.rmspepo,
            "rmspe_pct": self.rmspe,
            "rmspepr_ratio": self.rmspepr / 100.0,
            "rmspepo_ratio": None if self.rmspepo is None else self.rmspepo / 100.0,
            "rmspe_ratio": self.rmspe / 100.0,
            "ia": self.ia,
            "ae": self.ae,
            "mae": self.mae,
            "nu": self.nu,
            "n": self.n,
        }


def _unscorable(observed: np.ndarray) -> np.ndarray:
    """Where an observed value gives no relative error: 0, or not finite."""
    return (observed == 0) | ~np.isfinite(observed)


def _check_pair(observed, predicted) -> tuple[np.ndarray, np.ndarray]:
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.ndim != 1 or predicted.ndim != 1:
        raise ValueError("expected 1-d series")
    if observed.size != predicted.size:
        raise LengthMismatch(
            f"observed has {observed.size} points, predicted has {predicted.size}"
        )
    if observed.size == 0:
        raise ValueError("series are empty")
    bad = _unscorable(observed)
    if bad.any():
        k = int(bad.argmax())
        if observed[k] == 0:
            raise ZeroObserved(f"observed value at position {k + 1} is exactly 0")
        raise NonFiniteResult(f"observed value at position {k + 1} is {float(observed[k])!r}")
    return observed, predicted


def _rms_pct(rel: np.ndarray, out=None):
    """Root mean square of relative errors, in percent: a float for a 1-d
    series, a list of floats for the rows of a C-contiguous (B, n) batch,
    whose row sums round as the 1-d sum does.  The mean is spelled as
    ``np.mean`` computes it, without its Python-level wrapper.  The squares
    go to ``out``, ``rel`` itself allowed, when given."""
    squares = np.square(rel, out=out)
    return (np.sqrt(np.add.reduce(squares, axis=-1) / rel.shape[-1]) * 100.0).tolist()


# errstate as a decorator costs about half what a with block does (numpy 2.4)
@np.errstate(over="ignore", invalid="ignore")
def _agreement(observed: np.ndarray, predicted: np.ndarray, gap: np.ndarray) -> float:
    """Index of agreement, 1 - sum(gap^2) / sum(spread^2).  Where either
    sum overflows, it is the index of both series divided by the power of
    two that brings their largest |value| into [0.5, 1): exact scaling,
    under which the ratio keeps its bits."""
    sse, total = _agreement_sums(observed, predicted, gap)
    if not (math.isfinite(sse) and math.isfinite(total)):
        peak = max(np.abs(observed).max(), np.abs(predicted).max())
        scale = math.ldexp(1.0, -math.frexp(peak)[1])
        observed, predicted = observed * scale, predicted * scale
        sse, total = _agreement_sums(observed, predicted, predicted - observed)
    # the spread sums to 0 only where predicted == observed == their mean
    return 1.0 if sse == 0 else float(1.0 - sse / total)


def _agreement_sums(observed: np.ndarray, predicted: np.ndarray, gap: np.ndarray):
    """The index of agreement's sums of squared gaps and of squared spreads
    about the observed mean, the sums and the mean spelled as np.sum and
    np.mean compute them, as in _rms_pct."""
    xbar = float(np.add.reduce(observed) / observed.size)
    spread = np.abs(predicted - xbar) + np.abs(observed - xbar)
    return np.add.reduce(gap**2), np.add.reduce(spread**2)


def evaluate(observed, predicted, nu: int) -> EvaluationReport:
    """Compute the six criteria for a fitted/observed pairing.

    nu is the number of points the model was built on; RMSPEPO is absent
    (None) when there is no holdout, i.e. nu == n.
    """
    observed, predicted = _check_pair(observed, predicted)
    n = observed.size
    nu = _whole(nu)
    if not 1 <= nu <= n:
        raise ValueError(f"nu must be in [1, {n}], got {nu}")
    gap = predicted - observed
    rel = gap / observed
    rmspepr = _rms_pct(rel[:nu])
    rmspepo = _rms_pct(rel[nu:]) if n > nu else None
    rmspe = _rms_pct(rel)
    # means spelled as np.mean computes them, as in _rms_pct
    ae = float(np.add.reduce(gap) / n)
    mae = float(np.add.reduce(np.abs(gap)) / n)
    return EvaluationReport(
        rmspepr=rmspepr,
        rmspepo=rmspepo,
        rmspe=rmspe,
        ia=_agreement(observed, predicted, gap),
        ae=ae,
        mae=mae,
        nu=nu,
        n=n,
    )


def relative_errors(observed, predicted) -> np.ndarray:
    """Per-point |predicted - observed| / observed (observed is positive
    for real datasets, so these are error magnitudes)."""
    observed, predicted = _check_pair(observed, predicted)
    return np.abs(predicted - observed) / observed
