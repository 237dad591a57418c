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
from dataclasses import dataclass, replace

import numpy as np

from .accumulation import accumulate, inverse_accumulate
from .errors import (
    DevelopmentCoefficientOutOfRange,
    ModelFileError,
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

    @property
    def optimized(self) -> bool:
        return self in (ModelVariant.FAGMO11K, ModelVariant.ONGM11K)

    @property
    def order_locked(self) -> bool:
        return self in (
            ModelVariant.ONGM11K,
            ModelVariant.GM11KC,
            ModelVariant.GM11K,
            ModelVariant.GM11,
        )

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


@dataclass(frozen=True)
class FittedModel:
    variant: ModelVariant
    r: float
    base: BaseParams
    opt: OptParams | None
    x0: float
    nu: int
    n_total: int
    labels: tuple[int, ...]
    order_search: dict | None = None

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
        if not isinstance(doc, dict):
            raise ModelFileError("model document must be a JSON object")
        if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ModelFileError(
                f"unsupported schema_version {doc.get('schema_version')!r}"
            )
        try:
            variant = ModelVariant.from_tag(doc["variant"])
            r = float(doc["r"])
            base = BaseParams(float(doc["a"]), float(doc["b"]), float(doc["c"]))
            opt = None
            if doc.get("alpha") is not None:
                opt = OptParams(float(doc["alpha"]), float(doc["beta"]), float(doc["gamma"]))
            x0 = float(doc["x0"])
            nu = int(doc["nu"])
            n_total = int(doc["n_total"])
            labels = tuple(int(v) for v in doc["labels"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"bad model document: {exc}") from exc
        if not (math.isfinite(r) and r > 0):
            raise ModelFileError(f"fractional order must be finite and > 0, got {r!r}")
        if variant.order_locked and r != 1.0:
            raise ModelFileError(f"{variant.value} fixes the accumulation order to 1, got r={r!r}")
        if variant.optimized and opt is None:
            raise ModelFileError("optimised variant but alpha/beta/gamma are null")
        if len(labels) != n_total:
            raise ModelFileError(
                f"labels length {len(labels)} does not match n_total {n_total}"
            )
        if not (4 <= nu <= n_total):
            raise ModelFileError(f"nu {nu} outside [4, n_total={n_total}]")
        return cls(
            variant=variant,
            r=r,
            base=base,
            opt=opt,
            x0=x0,
            nu=nu,
            n_total=n_total,
            labels=labels,
            order_search=doc.get("order_search"),
        )

    @classmethod
    def load(cls, path) -> "FittedModel":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"model file is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def with_order_search(self, info: dict) -> "FittedModel":
        return replace(self, order_search=dict(info))


def build_design(series_r, variant: ModelVariant, nu: int | None = None):
    """Design matrix and response vector from an accumulated series.

    Rows cover k = 2..nu.  The full form is
    ``[-z(k), (2k - 1)/2, 1]`` with response ``x_r(k) - x_r(k-1)``,
    where z(k) = 0.5 (x_r(k-1) + x_r(k)) is the trapezoid background
    value.  Variants with b = 0 drop the middle column; variants with
    c = 0 drop the last.
    """
    series_r = np.asarray(series_r, dtype=float)
    if series_r.ndim != 1:
        raise ValueError("expected a 1-d accumulated series")
    nu = series_r.size if nu is None else int(nu)
    if nu < 4:
        raise TooFewSamples(f"need at least 4 samples to build the design, got nu={nu}")
    if nu > series_r.size:
        raise TooFewSamples(
            f"accumulated series has {series_r.size} samples, cannot use nu={nu}"
        )
    xr = series_r[:nu]
    z = 0.5 * (xr[:-1] + xr[1:])
    d = np.diff(xr)
    k = np.arange(2, nu + 1)
    cols = [-z]
    if not variant.zero_slope:
        cols.append((2 * k - 1) / 2.0)
    if not variant.zero_intercept:
        cols.append(np.ones(nu - 1))
    return np.column_stack(cols), d


def _solve_pivoted(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a tiny SPD-ish system.

    Raises SingularDesign when the best available pivot falls below
    REL_PIVOT_TOL relative to the largest entry of the original matrix.
    """
    g = g.copy()
    h = h.copy()
    m = g.shape[0]
    scale = np.max(np.abs(g))
    if scale == 0.0:
        raise SingularDesign("normal equations are identically zero")
    for col in range(m):
        p = col + int(np.argmax(np.abs(g[col:, col])))
        if abs(g[p, col]) < REL_PIVOT_TOL * scale:
            raise SingularDesign(
                f"pivot {g[p, col]:.3e} below {REL_PIVOT_TOL:g} * {scale:.3e}; "
                "the data do not determine the parameters"
            )
        if p != col:
            g[[col, p]] = g[[p, col]]
            h[[col, p]] = h[[p, col]]
        for row in range(col + 1, m):
            f = g[row, col] / g[col, col]
            g[row, col:] -= f * g[col, col:]
            h[row] -= f * h[col]
    out = np.empty(m)
    for row in range(m - 1, -1, -1):
        out[row] = (h[row] - np.dot(g[row, row + 1 :], out[row + 1 :])) / g[row, row]
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
    scale = np.max(np.abs(B), axis=0)
    scale[scale == 0] = 1.0  # zero column stays zero and trips the pivot check
    scaled = B / scale
    return _solve_pivoted(scaled.T @ scaled, scaled.T @ Y) / scale


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
    alpha = math.log((2 + a) / (2 - a))
    beta = b / a * alpha
    gamma = alpha * c / a - alpha * b / (2 * a) + beta / alpha + beta / 2 - beta / a
    return OptParams(alpha, beta, gamma)


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
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a nonempty 1-d series")
    n_total = values.size
    nu = n_total if nu is None else int(nu)
    if nu < 4:
        raise TooFewSamples(f"need at least 4 training samples, got nu={nu}")
    if nu > n_total:
        raise TooFewSamples(f"series has {n_total} samples, cannot train on nu={nu}")
    r = float(r)
    if not math.isfinite(r) or r <= 0:
        raise ValueError(f"fractional order must be finite and > 0, got {r!r}")
    if variant.order_locked and r != 1.0:
        raise VariantOrderConflict(
            f"{variant.value} fixes the accumulation order to 1, got r={r!r}"
        )
    if labels is None:
        labels = tuple(range(1, n_total + 1))
    else:
        labels = tuple(int(v) for v in labels)
        if len(labels) != n_total:
            raise ValueError(f"got {len(labels)} labels for {n_total} values")

    xr = accumulate(values[:nu], r)
    B, Y = build_design(xr, variant, nu)
    phi = solve_least_squares(B, Y)
    if variant.zero_slope:
        base = BaseParams(phi[0], 0.0, phi[1])
    elif variant.zero_intercept:
        base = BaseParams(phi[0], phi[1], 0.0)
    else:
        base = BaseParams(phi[0], phi[1], phi[2])
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
    anchored initial value exactly.
    """
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    total = model.n_total + horizon
    xr_hat = time_response(model, np.arange(1, total + 1))
    return inverse_accumulate(xr_hat, model.r)


def discretization_gap(model: FittedModel, k: int) -> float:
    """Residual of the discrete basic equation on the continuous response.

    Evaluates x_r(k) - x_r(k-1) + a z(k) - b (2k-1)/2 - c with the
    model's response function and its least-squares (a, b, c).  For
    plain variants this quantifies the trapezoid-rule mismatch between
    the whitening equation and its discretisation; for optimised
    variants the transform cancels it, leaving roundoff.
    """
    k = int(k)
    if k < 2:
        raise ValueError(f"gap is defined for k >= 2, got {k}")
    x_prev = time_response(model, k - 1)
    x_k = time_response(model, k)
    z = 0.5 * (x_prev + x_k)
    a, b, c = model.base.a, model.base.b, model.base.c
    return (x_k - x_prev) + a * z - (b * (2 * k - 1) / 2.0 + c)
