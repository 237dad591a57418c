"""The FAGMO(1,1,k) grey model family: fitting, forecasting, persistence.

All family members share one pipeline: accumulate the raw series at
order r, regress the differenced accumulated series on the trapezoid
background value and a linear drift term, then evaluate the closed-form
response

    x_r(k) = [x0 - b/a + b/a^2 - c/a] e^{-a(k-1)} + (b/a) k - b/a^2 + c/a

and restore forecasts with the inverse accumulation.  The optimised
variants replace (a, b, c) with transformed parameters (alpha, beta,
gamma) chosen so the continuous response satisfies the discrete basic
equation exactly instead of up to a trapezoid-rule error; see
:func:`optimize_params` and :func:`discretization_gap`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .accumulation import _check_order, _check_series, accumulate, inverse_accumulate
from .datasets import _labels, _whole
from .errors import (
    DevelopmentCoefficientOutOfRange,
    GreycastError,
    ModelFileError,
    NonFiniteResult,
    SingularDesign,
    TooFewSamples,
    VariantOrderConflict,
    ZeroDevelopmentCoefficient,
)

__all__ = [
    "ModelVariant",
    "BaseParams",
    "OptParams",
    "FittedModel",
    "build_design",
    "solve_least_squares",
    "optimize_params",
    "alpha_gap",
    "time_response",
    "fit",
    "predict",
    "discretization_gap",
]

#: Relative pivot threshold below which the normal equations are treated
#: as singular.
REL_PIVOT_TOL = 1e-12

MODEL_SCHEMA_VERSION = 1


class ModelVariant(enum.Enum):
    """The grey-model family.

    Reduced members pin parts of the full model: FAGM11 and GM11 force
    b = 0, GM11K forces c = 0, and the GM/ONGM members lock the
    accumulation order to 1.  Only FAGMO11K and ONGM11K apply the
    optimised-parameter transform.
    """

    FAGMO11K = "fagmo"
    FAGM11K = "fagm11k"
    FAGM11 = "fagm11"
    ONGM11K = "ongm11k"
    GM11KC = "gm11kc"
    GM11K = "gm11k"
    GM11 = "gm11"

    # Both compare values: looking members up on the class costs far more.
    @property
    def optimized(self) -> bool:
        return self._value_ in ("fagmo", "ongm11k")

    @property
    def order_locked(self) -> bool:
        return self._value_ in ("ongm11k", "gm11kc", "gm11k", "gm11")

    @property
    def zero_slope(self) -> bool:
        """True when the linear drift coefficient b is pinned to 0."""
        return self in (ModelVariant.FAGM11, ModelVariant.GM11)

    @property
    def zero_intercept(self) -> bool:
        """True when the constant forcing term c is pinned to 0."""
        return self is ModelVariant.GM11K

    @classmethod
    def from_tag(cls, tag: str) -> "ModelVariant":
        try:
            return cls(tag)
        except ValueError:
            known = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown model variant {tag!r} (expected one of: {known})") from None


@dataclass(frozen=True)
class BaseParams:
    """Least-squares parameters: development coefficient a, drift slope b,
    drift intercept c."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class OptParams:
    """Optimised parameters (alpha, beta, gamma) from :func:`optimize_params`."""

    alpha: float
    beta: float
    gamma: float


def _number(value) -> float:
    """``float(value)`` for a JSON number; ``float`` would also take a str
    or a bool, which a model document never holds."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FittedModel:
    """A fitted family member.  Every constructor (:func:`fit`,
    :meth:`from_dict`, ``dataclasses.replace``) passes the same checks: r
    passes the accumulation's order rule and is 1 for an order-locked
    variant (VariantOrderConflict); ``opt`` is None exactly when the
    variant is not optimised; x0 and every parameter are finite
    (NonFiniteResult); and nu passes :func:`_train_size`'s rule.  Labels
    are checked where they are parsed, by :func:`fit` and
    :meth:`from_dict` through :func:`greycast.datasets._labels`, so that
    building a model does not loop over them.
    """

    variant: ModelVariant
    r: float
    base: BaseParams
    opt: OptParams | None
    x0: float
    nu: int
    n_total: int
    labels: tuple[int, ...]
    order_search: dict | None = None

    def __post_init__(self):
        variant, base, opt = self.variant, self.base, self.opt
        if _check_order(self.r) != 1.0 and variant.order_locked:
            raise VariantOrderConflict(
                f"{variant.value} fixes the accumulation order to 1, got r={self.r!r}"
            )
        if (opt is None) == variant.optimized:
            raise ValueError(f"{variant.value} takes alpha/beta/gamma exactly when optimised")
        isfinite = math.isfinite
        if not (
            isfinite(self.x0) and isfinite(base.a) and isfinite(base.b) and isfinite(base.c)
            and (opt is None or isfinite(opt.alpha) and isfinite(opt.beta) and isfinite(opt.gamma))
        ):
            raise NonFiniteResult(f"parameters must be finite, got x0={self.x0!r}, {base}, {opt}")
        _train_size(self.n_total, self.nu)

    @property
    def active_params(self) -> tuple[float, float, float]:
        """Parameters the response function runs on: the optimised triple
        when present, the least-squares triple otherwise."""
        if self.opt is not None:
            return (self.opt.alpha, self.opt.beta, self.opt.gamma)
        return (self.base.a, self.base.b, self.base.c)

    def to_dict(self) -> dict:
        doc = {
            "schema_version": MODEL_SCHEMA_VERSION,
            "variant": self.variant.value,
            "r": self.r,
            "a": self.base.a,
            "b": self.base.b,
            "c": self.base.c,
            "alpha": self.opt.alpha if self.opt else None,
            "beta": self.opt.beta if self.opt else None,
            "gamma": self.opt.gamma if self.opt else None,
            "x0": self.x0,
            "nu": self.nu,
            "n_total": self.n_total,
            "labels": list(self.labels),
        }
        if self.order_search is not None:
            doc["order_search"] = self.order_search
        return doc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedModel":
        """Load a document written by :meth:`to_dict`.

        Raises ModelFileError for any document that :func:`fit` could not
        have produced: a missing or malformed field (parameters must be
        JSON numbers, counts and labels whole numbers, and alpha/beta/gamma
        all null or all numbers), or a model that breaks an invariant.
        """
        if not isinstance(doc, dict):
            raise ModelFileError("model document must be a JSON object")
        if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ModelFileError(
                f"unsupported schema_version {doc.get('schema_version')!r}"
            )
        try:
            transform = (doc.get("alpha"), doc.get("beta"), doc.get("gamma"))
            n_total = _whole(doc["n_total"])
            return cls(
                variant=ModelVariant.from_tag(doc["variant"]),
                r=_number(doc["r"]),
                base=BaseParams(_number(doc["a"]), _number(doc["b"]), _number(doc["c"])),
                opt=None if transform == (None, None, None)
                else OptParams(*map(_number, transform)),
                x0=_number(doc["x0"]),
                nu=_whole(doc["nu"]),
                n_total=n_total,
                labels=_labels(doc["labels"], n_total),
                order_search=doc.get("order_search"),
            )
        except (KeyError, TypeError, ValueError, OverflowError, GreycastError) as exc:
            raise ModelFileError(f"bad model document: {exc}") from exc

    @classmethod
    def load(cls, path) -> "FittedModel":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"model file is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


#: Design column of each of (a, b, c), None where the variant pins it to 0:
#: the one statement of which parameters a variant estimates.
_LAYOUT = {
    variant: (0, None, 1) if variant.zero_slope
    else (0, 1, None) if variant.zero_intercept
    else (0, 1, 2)
    for variant in ModelVariant
}


def build_design(series_r, variant: ModelVariant, nu: int | None = None):
    """Design matrix and response vector from an accumulated series.

    Rows cover k = 2..nu.  The full form is
    ``[-z(k), (2k - 1)/2, 1]`` with response ``x_r(k) - x_r(k-1)``,
    where z(k) = 0.5 (x_r(k-1) + x_r(k)) is the trapezoid background
    value.  Variants with b = 0 drop the middle column; variants with
    c = 0 drop the last.  An (n, B) batch of series gives a (nu-1, m, B)
    design and a (nu-1, B) response, one system per column.
    """
    series_r = np.asarray(series_r, dtype=float)
    if series_r.ndim not in (1, 2):
        raise ValueError("expected a 1-d accumulated series or an (n, B) batch of them")
    nu = _train_size(series_r.shape[0], nu)
    xr = series_r[:nu]
    k = np.arange(2, nu + 1).reshape((nu - 1,) + (1,) * (xr.ndim - 1))
    columns = (-(0.5 * (xr[:-1] + xr[1:])), (2 * k - 1) / 2.0, 1.0)
    layout = _LAYOUT[variant]
    design = np.empty((nu - 1, len(layout) - layout.count(None)) + xr.shape[1:])
    for col, i in zip(columns, layout):
        if i is not None:
            design[:, i] = col
    return design, xr[1:] - xr[:-1]


def _place(phi, variant: ModelVariant):
    """(a, b, c) from solved design coefficients ``phi``; a pinned one is 0.0."""
    return tuple(0.0 if i is None else phi[i] for i in _LAYOUT[variant])


def _solve_pivoted(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a tiny SPD-ish system.

    Raises SingularDesign when the best available pivot falls below
    REL_PIVOT_TOL relative to the largest entry of the original matrix.

    The pivot search, swaps and elimination run on Python floats, which
    round exactly as numpy float64 scalars do but cost far less per
    operation; the back-substitution keeps ``np.dot``, whose summation
    differs from a plain Python sum in the last bit.  A NaN anywhere in
    ``g`` spreads to every unknown, so such a system returns all NaN
    without being eliminated.
    """
    a = g.tolist()
    rhs = h.tolist()
    m = len(rhs)
    mags = [abs(v) for row in a for v in row]
    if math.isnan(sum(mags)):
        return np.full(m, math.nan)
    scale = max(mags)
    if scale == 0.0:
        raise SingularDesign("normal equations are identically zero")
    for col in range(m):
        # First maximum wins, as with np.argmax; a NaN counts as maximal.
        p, best = col, abs(a[col][col])
        for row in range(col + 1, m):
            v = abs(a[row][col])
            if v > best or (v != v and best == best):
                p, best = row, v
        pivot = a[p][col]
        # pivot == 0 passes the relative test only when the scale is subnormal
        if best < REL_PIVOT_TOL * scale or pivot == 0.0:
            raise SingularDesign(
                f"pivot {pivot:.3e} below {REL_PIVOT_TOL:g} * {scale:.3e}; "
                "the data do not determine the parameters"
            )
        if p != col:
            a[col], a[p] = a[p], a[col]
            rhs[col], rhs[p] = rhs[p], rhs[col]
        top = a[col]
        for row in range(col + 1, m):
            cur = a[row]
            f = cur[col] / pivot
            for j in range(col + 1, m):
                cur[j] -= f * top[j]
            rhs[row] -= f * rhs[col]
    out = np.empty(m)
    for row in range(m - 1, -1, -1):
        out[row] = (rhs[row] - np.dot(a[row][row + 1 :], out[row + 1 :])) / a[row][row]
    return out


def solve_least_squares(B, Y) -> np.ndarray:
    """Minimise ||B phi - Y|| by solving the normal equations directly.

    The systems here are at most 3x3, so a pivoted dense solve is both
    adequate and easy to make deterministic.  Columns are scaled to unit
    max before forming the normal equations so that the singularity
    threshold measures rank deficiency, not scale disparity between
    regressors (a steeply accumulated series can put 1e10-sized values
    next to the all-ones intercept column).
    """
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if B.ndim != 2 or Y.ndim != 1 or B.shape[0] != Y.size:
        raise ValueError("design matrix and response vector shapes disagree")
    if B.shape[0] < B.shape[1]:
        raise ValueError(
            f"underdetermined system: {B.shape[0]} rows for {B.shape[1]} columns"
        )
    scale = _column_scale(B)
    scaled = B / scale
    return _solve_pivoted(scaled.T @ scaled, scaled.T @ Y) / scale


def _column_scale(B) -> np.ndarray:
    """Max |entry| of each column of a (rows, m) design, or of each system's
    columns in a (rows, m, B) batch; a zero column gets scale 1."""
    scale = np.abs(B).max(axis=0)
    scale[scale == 0] = 1.0  # so a zero column stays zero and trips the pivot check
    return scale


def optimize_params(base: BaseParams) -> OptParams:
    """Transform least-squares (a, b, c) into optimised (alpha, beta, gamma).

        alpha = ln((2 + a) / (2 - a))
        beta  = (b / a) alpha
        gamma = alpha c / a - alpha b / (2a) + beta/alpha + beta/2 - beta/a

    These are exactly the parameter values that make the continuous
    response satisfy the discrete basic equation, so the identities
    (1 + a/2) - (1 - a/2) e^alpha = 0 and (beta/alpha) a = b hold to
    roundoff on the output.
    """
    a, b, c = base.a, base.b, base.c
    if a == 0:
        raise ZeroDevelopmentCoefficient("development coefficient a is exactly 0")
    if abs(a) >= 2:
        raise DevelopmentCoefficientOutOfRange(
            f"|a| must be < 2 for the optimised transform, got a={a!r}"
        )
    return OptParams(*_transform(a, b, c, math.log))


def _transform(a, b, c, log):
    """The (alpha, beta, gamma) formulas, on floats with ``math.log`` or on
    arrays with ``np.log``; the caller checks 0 < |a| < 2."""
    alpha = log((2 + a) / (2 - a))
    beta = b / a * alpha
    gamma = alpha * c / a - alpha * b / (2 * a) + beta / alpha + beta / 2 - beta / a
    return alpha, beta, gamma


def alpha_gap(a: float) -> float:
    """Gap ln((2+a)/(2-a)) - a between the optimised and raw development
    coefficients; strictly increasing in a on (-2, 2) and ~a^3/12 near 0."""
    return math.log((2 + a) / (2 - a)) - a


def _response(x0, p, q, g, k):
    """Closed-form response at float time indices ``k``, anchored to x0 at k = 1.

    The single copy of the formula: :func:`time_response`, the sweep's
    synthetic series and the order-search kernel all call it.  Parameters
    and ``k`` broadcast, so ``k`` of shape (n, 1) against parameters of
    shape (B,) gives one column per parameter set.
    """
    # Bracketed constant computed once so repeated calls agree bitwise.
    const = x0 - q / p + q / p**2 - g / p
    out = const * np.exp(-p * (k - 1)) + q / p * k - q / p**2 + g / p
    return np.where(k == 1, x0, out)


def time_response(model: FittedModel, k):
    """Accumulated-series response at time index k (1-based, scalar or array).

    k = 1 returns the anchored initial value exactly.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 1):
        raise ValueError("time index must be >= 1")
    out = _response(model.x0, *model.active_params, karr)
    if np.isscalar(k) or np.ndim(k) == 0:
        return float(out)
    return out


def _train_size(size: int, nu: int | None) -> int:
    """The number of leading samples, of ``size``, to train on: all of them
    when ``nu`` is None.  The one statement of the whole 4 <= nu <= size rule."""
    nu = size if nu is None else _whole(nu)
    if nu < 4:
        raise TooFewSamples(f"need at least 4 training samples, got nu={nu}")
    if nu > size:
        raise TooFewSamples(f"series has {size} samples, cannot train on nu={nu}")
    return nu


def _training_window(values, nu: int | None):
    """``values`` as a nonempty 1-d float array, and the number of leading
    samples to train on."""
    values = _check_series(values)
    return values, _train_size(values.size, nu)


def fit(
    values,
    r: float,
    variant: ModelVariant,
    nu: int | None = None,
    labels=None,
) -> FittedModel:
    """Fit a family member to the first ``nu`` values of a raw series.

    Order-locked variants must be called with r = 1.  Positivity of the
    raw data is an ingestion-level rule, not enforced here, so synthetic
    series that dip negative after inverse accumulation stay fittable.
    """
    values, nu = _training_window(values, nu)
    n_total = values.size
    r = float(r)
    labels = tuple(range(1, n_total + 1)) if labels is None else _labels(labels, n_total)

    B, Y = build_design(accumulate(values[:nu], r), variant)
    base = BaseParams(*_place(solve_least_squares(B, Y), variant))
    opt = optimize_params(base) if variant.optimized else None
    return FittedModel(
        variant=variant,
        r=r,
        base=base,
        opt=opt,
        x0=float(values[0]),
        nu=nu,
        n_total=n_total,
        labels=labels,
    )


def predict(model: FittedModel, horizon: int = 0) -> np.ndarray:
    """Restored (raw-scale) fitted values plus ``horizon`` future steps.

    Evaluates the response at k = 1..n_total+horizon and applies the
    inverse accumulation at the model's order.  Element 1 equals the
    anchored initial value exactly.  Raises NonFiniteResult when a value
    overflows; finite values, however large, are returned.
    """
    horizon = _whole(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    total = model.n_total + horizon
    # An overflow ends in NonFiniteResult, so numpy's warnings add only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        xr_hat = time_response(model, np.arange(1, total + 1))
        out = inverse_accumulate(xr_hat, model.r)
        # A finite sum means every value is finite; the sum alone can overflow.
        finite = math.isfinite(out.sum()) or np.isfinite(out).all()
    if not finite:
        raise NonFiniteResult(f"restored value {np.argmin(np.isfinite(out)) + 1} overflows")
    return out


def discretization_gap(model: FittedModel, k: int) -> float:
    """Residual of the discrete basic equation on the continuous response.

    Evaluates x_r(k) - x_r(k-1) + a z(k) - b (2k-1)/2 - c with the
    model's response function and its least-squares (a, b, c).  For
    plain variants this quantifies the trapezoid-rule mismatch between
    the whitening equation and its discretisation; for optimised
    variants the transform cancels it, leaving roundoff.
    """
    k = _whole(k)
    if k < 2:
        raise ValueError(f"gap is defined for k >= 2, got {k}")
    x_prev = time_response(model, k - 1)
    x_k = time_response(model, k)
    z = 0.5 * (x_prev + x_k)
    a, b, c = model.base.a, model.base.b, model.base.c
    return (x_k - x_prev) + a * z - (b * (2 * k - 1) / 2.0 + c)
