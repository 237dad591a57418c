"""The FAGMO(1,1,k) grey model family: fitting, forecasting, persistence.

All family members share one pipeline: accumulate the raw series at
order r, regress the differenced accumulated series on the trapezoid
background value and a linear drift term (one Householder QR, see
:func:`solve_least_squares`), then evaluate the closed-form response

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

#: Relative size, against the largest, at or below which a diagonal entry
#: of the QR factor R makes the design singular.  R^T R is the normal
#: matrix, so this is the square root of a 1e-12 pivot rule on it.
REL_RANK_TOL = 1e-6

#: Smallest |a| the optimised transform takes.  Below it, a is roundoff
#: (a flat series fits a = +-1e-16 or so), alpha rounds to 0 and gamma's
#: beta/alpha term is 0/0 or +-1e12-sized noise.
A_FLOOR = 1e-12

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
    (NonFiniteResult); n_total is a whole number, one per label; and nu
    passes :func:`_train_size`'s rule.  The labels themselves are checked
    where they are parsed, by :func:`fit` and :meth:`from_dict` through
    :func:`greycast.datasets._labels`, so that building a model does not
    loop over them.
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
        if len(self.labels) != _whole(self.n_total):
            raise ValueError(f"got {len(self.labels)} labels for n_total={self.n_total!r}")
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
    columns, response = _design_columns(series_r, variant, nu)
    design = np.empty((response.shape[0], len(columns)) + response.shape[1:])
    for i, col in enumerate(columns):
        design[:, i] = col
    return design, response


def _design_columns(series_r, variant: ModelVariant, nu: int | None = None):
    """The design's columns, in order, and its response, as :func:`build_design`
    places them.  Only column 0, -z, depends on the series: it is (nu-1, B)
    for an (n, B) batch, and the (2k - 1)/2 and intercept columns are
    (nu-1, 1), the same for every series in it ((nu-1,) each for a 1-d
    series)."""
    series_r = np.asarray(series_r, dtype=float)
    if series_r.ndim not in (1, 2):
        raise ValueError("expected a 1-d accumulated series or an (n, B) batch of them")
    nu = _train_size(series_r.shape[0], nu)
    xr = series_r[:nu]
    k = np.arange(2.0, nu + 1).reshape((nu - 1,) + (1,) * (xr.ndim - 1))
    # k - 0.5 is (2k - 1)/2 exactly, in one operation
    every = (-(0.5 * (xr[:-1] + xr[1:])), k - 0.5, np.ones(k.shape))
    columns = [col for col, i in zip(every, _LAYOUT[variant]) if i is not None]
    return columns, xr[1:] - xr[:-1]


def _place(phi, variant: ModelVariant):
    """(a, b, c) from solved design coefficients ``phi``; a pinned one is 0.0."""
    return tuple(0.0 if i is None else phi[i] for i in _LAYOUT[variant])


def solve_least_squares(B, Y) -> np.ndarray:
    """Minimise ||B phi - Y|| by one Householder QR of the scaled ``[B | Y]``.

    Columns are scaled to unit max first, so that the rank test measures
    rank deficiency, not scale disparity between regressors (a steeply
    accumulated series can put 1e10-sized values next to the all-ones
    intercept column).  The R factor of the augmented matrix holds Q^T Y
    in its last column, so phi comes from R alone, and the design's
    condition number is not squared as the normal equations square it.
    Raises SingularDesign when some |R_kk| is at most REL_RANK_TOL times
    the largest; a NaN spreads to every unknown.
    """
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if B.ndim != 2 or Y.ndim != 1 or B.shape[0] != Y.size:
        raise ValueError("design matrix and response vector shapes disagree")
    rows, m = B.shape
    if rows < m:
        raise ValueError(f"underdetermined system: {rows} rows for {m} columns")
    scale = _column_scale(B)
    aug = np.empty((rows, m + 1))
    np.divide(B, scale, out=aug[:, :m])
    aug[:, m] = Y
    R = _householder_r(aug)
    diag = [abs(R[k][k]) for k in range(m)]
    if math.isnan(sum(diag)):
        return np.full(m, math.nan)
    if min(diag) <= REL_RANK_TOL * max(diag):
        raise SingularDesign(
            f"|R_kk| {min(diag):.3e} not above {REL_RANK_TOL:g} * {max(diag):.3e}; "
            "the data do not determine the parameters"
        )
    return np.array(_back_substitute(R, m)) / scale


def _householder_r(aug):
    """Rows k < m of the R factor of a (rows, m+1) matrix as nested lists,
    ``R[k][j]`` a float, or of each matrix of an (A, rows, m+1) stack,
    ``R[k][j]`` an (A,) array: one LAPACK call, which gives a matrix in a
    stack the same bits as alone.  Only entries with j >= k are R's; the
    rest are Householder vectors, which nothing reads.  ``mode="raw"``
    skips the copy that zeroes them, a large share of the call's cost on
    one small matrix.
    """
    m = aug.shape[-1] - 1
    h = np.linalg.qr(aug, mode="raw")[0][..., :m]  # R transposed, LAPACK's layout
    return h.T.tolist() if h.ndim == 2 else h.transpose(2, 1, 0)


def _back_substitute(R, m: int) -> list:
    """phi with R[:m, :m] phi = R[:m, m], for R from :func:`_householder_r`
    of a scaled ``[B | Y]`` with m design columns; floats and arrays round
    alike.  m comes from the design, because R has only m rows when B is
    square."""
    phi = [0.0] * m
    for k in range(m - 1, -1, -1):
        acc = R[k][m]
        for j in range(k + 1, m):
            acc = acc - R[k][j] * phi[j]
        phi[k] = acc / R[k][k]
    return phi


def _column_scale(B) -> np.ndarray:
    """Max |entry| of each column of a (rows, m) design, or of each system's
    columns in a (rows, m, B) batch; a zero column gets scale 1."""
    scale = np.abs(B).max(axis=0)
    scale[scale == 0] = 1.0  # so a zero column stays zero and trips the rank test
    return scale


def optimize_params(base: BaseParams) -> OptParams:
    """Transform least-squares (a, b, c) into optimised (alpha, beta, gamma).

        alpha = ln((2 + a) / (2 - a))
        beta  = (b / a) alpha
        gamma = alpha c / a - alpha b / (2a) + beta/alpha + beta/2 - beta/a

    These are exactly the parameter values that make the continuous
    response satisfy the discrete basic equation, so the identities
    (1 + a/2) - (1 - a/2) e^alpha = 0 and (beta/alpha) a = b hold to
    roundoff on the output.  Raises ZeroDevelopmentCoefficient when
    |a| < A_FLOOR and DevelopmentCoefficientOutOfRange when |a| >= 2.
    """
    a, b, c = base.a, base.b, base.c
    if abs(a) < A_FLOOR:
        raise ZeroDevelopmentCoefficient(
            f"development coefficient a={a!r} is 0 to roundoff (|a| < {A_FLOOR:g})"
        )
    if abs(a) >= 2:
        raise DevelopmentCoefficientOutOfRange(
            f"|a| must be < 2 for the optimised transform, got a={a!r}"
        )
    return OptParams(*_transform(a, b, c, math.log))


def _transform(a, b, c, log):
    """The (alpha, beta, gamma) formulas, on floats with ``math.log`` or on
    arrays with ``np.log``; the caller checks A_FLOOR <= |a| < 2."""
    alpha = log((2 + a) / (2 - a))
    beta = b / a * alpha
    gamma = alpha * c / a - alpha * b / (2 * a) + beta / alpha + beta / 2 - beta / a
    return alpha, beta, gamma


def alpha_gap(a: float) -> float:
    """Gap ln((2+a)/(2-a)) - a between the optimised and raw development
    coefficients; strictly increasing in a on (-2, 2) and ~a^3/12 near 0."""
    return math.log((2 + a) / (2 - a)) - a


def _response_terms(x0, p, q, g):
    """The parameter terms of the response: the bracketed constant, q/p,
    q/p^2 and g/p, on floats or on arrays of parameter sets, which round
    alike.  p^2 is ``p * p``: a float ``p**2`` goes through libm ``pow``
    and raises OverflowError where ``p * p`` gives inf.

    Float division by a p that is 0, or whose square underflows to 0,
    raises ZeroDivisionError; the terms are then those of numpy's IEEE
    division, +-inf or NaN, as for parameters held as numpy floats.

    With :func:`_response` this is the single copy of the formula.
    """
    try:
        qp, qp2, gp = q / p, q / (p * p), g / p
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return _response_terms(np.float64(x0), np.float64(p), q, g)
    return x0 - qp + qp2 - gp, qp, qp2, gp


def _response(x0, p, terms, k):
    """Closed-form response at float time indices ``k``, anchored to x0 at k = 1,
    from :func:`_response_terms` of the same x0 and (p, q, g).

    :func:`time_response`, the sweep and the order-search kernel all call
    both steps.  Parameters, terms and ``k`` broadcast, so ``k`` of shape
    (n, 1) against parameters of shape (B,) gives one column per parameter
    set.
    """
    const, qp, qp2, gp = terms
    out = const * np.exp(-p * (k - 1)) + qp * k - qp2 + gp
    return np.where(k == 1, x0, out)


def time_response(model: FittedModel, k):
    """Accumulated-series response at time index k (1-based, scalar or array).

    k = 1 returns the anchored initial value exactly.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 1):
        raise ValueError("time index must be >= 1")
    p, q, g = model.active_params
    out = _response(model.x0, p, _response_terms(model.x0, p, q, g), karr)
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
    anchored initial value exactly.  Raises NonFiniteResult, naming the
    first value that overflows or is NaN; finite values, however large,
    are returned.
    """
    horizon = _whole(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    total = model.n_total + horizon
    # An overflow or a zero a ends in NonFiniteResult, so numpy's warnings
    # add only noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xr_hat = time_response(model, np.arange(1, total + 1))
        out = inverse_accumulate(xr_hat, model.r)
        # A finite sum means every value is finite; the sum alone can overflow.
        finite = math.isfinite(out.sum()) or np.isfinite(out).all()
    if not finite:
        k = int(np.argmin(np.isfinite(out)))
        cause = "is NaN" if math.isnan(out[k]) else "overflows"
        raise NonFiniteResult(f"restored value {k + 1} {cause}")
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
