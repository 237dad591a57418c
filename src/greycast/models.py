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
import functools
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


def _design_columns(series_r, variant: ModelVariant, nu: int | None = None, out=(None, None)):
    """The design's columns, in order, and its response, as :func:`build_design`
    places them.  Only column 0, -z, depends on the series: it is (nu-1, B)
    for an (n, B) batch, and the (2k - 1)/2 and intercept columns are
    (nu-1, 1), the same for every series in it ((nu-1,) each for a 1-d
    series).  -z and the response go to the arrays of ``out`` when given."""
    series_r = np.asarray(series_r, dtype=float)
    if series_r.ndim not in (1, 2):
        raise ValueError("expected a 1-d accumulated series or an (n, B) batch of them")
    nu = _train_size(series_r.shape[0], nu)
    xr = series_r[:nu]
    k = np.arange(2.0, nu + 1).reshape((nu - 1,) + (1,) * (xr.ndim - 1))
    z = np.add(xr[:-1], xr[1:], out=out[0])  # -z = -(0.5 * (xr[:-1] + xr[1:]))
    np.negative(np.multiply(0.5, z, out=z), out=z)
    # k - 0.5 is (2k - 1)/2 exactly, in one operation
    every = (z, k - 0.5, np.ones(k.shape))
    columns = [col for col, i in zip(every, _LAYOUT[variant]) if i is not None]
    return columns, np.subtract(xr[1:], xr[:-1], out=out[1])


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
    The columns before the last are factored once per content (see
    :func:`_householder`): :func:`fit` puts -z, the only column that depends
    on the series, last, and so does a batch of systems
    (:func:`_fit_batch`), which gives each system the bits it gets here.
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
    *leading, last = (B / scale).T
    R = _householder(np.array(leading).tolist(), last, Y)
    diag = [abs(R[k][k]) for k in range(m)]
    if math.isnan(sum(diag)):
        return np.full(m, math.nan)
    if min(diag) <= REL_RANK_TOL * max(diag):
        raise SingularDesign(
            f"|R_kk| {min(diag):.3e} not above {REL_RANK_TOL:g} * {max(diag):.3e}; "
            "the data do not determine the parameters"
        )
    return np.array(_back_substitute(R, m)) / scale


def _householder(leading, column, response, scratch=None) -> list:
    """R of the Householder QR of the columns ``leading + [column, response]``,
    as its columns: ``R[j][k]`` is R_kj for k <= j, and the response's
    entries are those of Q^T times it.

    ``leading`` are lists of floats, shared by every system of a batch, so
    their part of the QR is computed once per content (:func:`_leading_qr`);
    ``column`` and ``response`` are (rows,) arrays, one system, or (rows, B)
    arrays, a batch.  The QR is left-looking: each column takes every
    earlier column's reflector in turn.  Each step rounds a system's entries
    alike alone and in a batch, and sums run row by row, first row first,
    so a system gets the same bits either way.

    With ``scratch``, an array of ``column``'s shape for the products of
    each step, the reflections overwrite ``column`` and ``response``, which
    then hold the entries of R; without it, each step makes new arrays.
    """
    reflectors, R = _leading_qr(tuple(map(tuple, leading)))
    batch = column.ndim == 2  # a batch multiplies by each shared v as a (rows, 1) column
    reflectors = [(v[:, None] if batch else v, tau) for v, tau in reflectors]
    R = [*R, _factor(reflectors, column, scratch)]
    top, y, scratch = _reflect_all(reflectors[:-1], response, scratch)
    v, tau = reflectors[-1]
    return R + [top + [y[0] + -tau * _dot(v, y, scratch)]]  # the first entry of H y, as v[0] = 1


@functools.lru_cache(maxsize=64)
def _leading_qr(columns):
    """The reflectors, as (v, tau) pairs, and the R columns of the float
    ``columns``, kept for later systems."""
    reflectors = []
    R = [_factor(reflectors, np.array(x), None) for x in columns]
    return tuple(reflectors), tuple(R)


def _factor(reflectors, x, scratch) -> list:
    """Column ``x``'s entries of R, after the reflectors so far, whose list
    then takes the column's own; with ``scratch``, ``x`` is overwritten,
    and the new reflector's v is its tail."""
    top, x, scratch = _reflect_all(reflectors, x, scratch)
    beta, v, tau = _reflector(x, scratch)
    reflectors.append((v, tau))
    return top + [beta]


def _reflect_all(reflectors, x, scratch):
    """The entries of column ``x`` that each reflector in turn fixes, what
    is left of the column below them, and as many rows of ``scratch``."""
    top = []
    for v, tau in reflectors:
        x = _reflect(v, tau, x, scratch)
        top.append(x[0])
        x = x[1:]
        if scratch is not None:
            scratch = scratch[1:]
    return top, x, scratch


def _reflector(x, scratch):
    """(beta, v, tau) of the Householder reflector H = I - tau v v^T that maps
    the column ``x`` to beta e_1, in LAPACK's form: |beta| = ||x||, with the
    sign that keeps the pivot x[0] - beta free of cancellation, v[0] = 1 and
    every |v[i]| <= 1.  An all-zero column gets pivot 1 and tau = -0.0, the
    identity.  math.sqrt, np.sqrt and copysign are correctly rounded or
    exact, so one system and a batch agree.  With ``scratch``, an array of
    x's shape for the products of its norm, v overwrites ``x``."""
    s = _dot(x, x, scratch)
    if x.ndim == 2:
        beta = -np.copysign(np.sqrt(s), x[0])
        pivot = np.where(x[0] == beta, 1.0, x[0] - beta)
        tau = -pivot / np.where(beta == 0, math.inf, beta)
    else:
        beta = -math.copysign(math.sqrt(s), x[0])
        pivot = x[0] - beta or 1.0
        tau = -pivot / (beta or math.inf)
    v = np.divide(x, pivot, out=None if scratch is None else x)
    v[0] = 1.0
    return beta, v, tau


def _reflect(v, tau, x, scratch):
    """H x for the reflector (v, tau) of :func:`_reflector`: (v f) + x with
    f = -tau (v^T x), as LAPACK's dlarf applies it.  With ``scratch``, an
    array of x's shape for the products, it is written to ``x``."""
    vf = np.multiply(v, -tau * _dot(v, x, scratch), out=scratch)
    return np.add(vf, x, out=vf if scratch is None else x)


def _dot(v, x, scratch):
    """v^T x summed row by row, first row first, its products going to
    ``scratch`` when given.  ``np.add.reduce`` over axis 0 adds whole rows
    in turn while a row holds more than one element (as
    :func:`~greycast.accumulation._convolve` relies on too); rows of one it
    sums pairwise, and ``np.add.accumulate`` then keeps the order."""
    terms = np.multiply(v, x, out=scratch)
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _back_substitute(R, m: int) -> list:
    """phi with R[:m, :m] phi = R[:m, m], for the columns R of
    :func:`_householder` with m design columns; one system and a batch
    round alike."""
    phi = [0.0] * m
    for k in range(m - 1, -1, -1):
        acc = R[m][k]
        for j in range(k + 1, m):
            acc = acc - R[j][k] * phi[j]
        phi[k] = acc / R[k][k]
    return phi


#: Elements per (series length x batch) working array of the two batch paths,
#: the order-search kernel and the sweep.  Bounds how many columns one chunk
#: or block holds, and with it their memory: each path allocates a few such
#: float64 arrays, 128 KiB each, once per search or sweep.
CHUNK_ELEMENTS = 1 << 14


def _fit_batch(series_r, variant: ModelVariant, work=None):
    """:func:`fit` of each column of an (nu, B) batch of accumulated series,
    bit for bit: its (a, b, c), its (alpha, beta, gamma) when the variant is
    optimised (else None), and a mask of the columns for which ``fit`` would
    raise, leaving out x0 and the variant's order rule (the caller knows
    the raw series and r).

    It runs :func:`solve_least_squares`'s steps, design, scale, QR, rank
    test and back-substitution, on arrays over the batch, then places
    (a, b, c) and transforms them; the order-independent columns, their
    scales and their reflectors are the same for every column, so they are
    computed once, on floats.  ``work``, three (nu-1, B) arrays, takes -z,
    the response and the scratch of each step in place of new arrays.
    """
    z, response, scratch = (None, None, None) if work is None else work
    (z, *leading), response = _design_columns(series_r, variant, out=(z, response))
    scales = [float(_column_scale(col)[0]) for col in leading] + [_column_scale(z, scratch)]
    leading = [(col[:, 0] / scale).tolist() for col, scale in zip(leading, scales)]
    R = _householder(leading, np.divide(z, scales[-1], out=z), response, scratch)
    m = len(R) - 1
    diag = [np.abs(R[k][k]) for k in range(m)]  # solve_least_squares's rank test; NaN fails
    low, high = functools.reduce(np.minimum, diag), functools.reduce(np.maximum, diag)
    failed = ~(low > REL_RANK_TOL * high)
    *rest, a = [x / scale for x, scale in zip(_back_substitute(R, m), scales)]
    base = _place([a, *rest], variant)
    failed |= ~_finite(base)
    if not variant.optimized:
        return base, None, failed
    opt = _optimised_rows(*base)
    return base, opt, failed | ~_finite(opt)


def _optimised_rows(a, b, c) -> np.ndarray:
    """(3, B) array of the (alpha, beta, gamma) that :func:`optimize_params`
    gives for each column's (a, b, c), NaN where it raises: there an a
    outside A_FLOOR <= |a| < 2 becomes NaN."""
    a = np.where((A_FLOOR <= np.abs(a)) & (np.abs(a) < 2), a, math.nan)
    return np.array(_transform(a, b, c))


def _finite(params):
    """Where every one of a batch's parameter arrays (or pinned floats) is finite."""
    return np.isfinite(np.broadcast_arrays(*params)).all(axis=0)


def _column_scale(B, scratch=None) -> np.ndarray:
    """Max |entry| of each column of a (rows, m) design, or of each system's
    column in a (rows, B) batch, the |entries| going to ``scratch`` when given;
    a zero column gets scale 1."""
    scale = np.abs(B, out=scratch).max(axis=0)
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
    roundoff on the output.  Raises NonFiniteResult when a is not finite,
    ZeroDevelopmentCoefficient when |a| < A_FLOOR and
    DevelopmentCoefficientOutOfRange when |a| >= 2.
    """
    a, b, c = base.a, base.b, base.c
    if not math.isfinite(a):
        raise NonFiniteResult(f"development coefficient a={a!r} is not finite")
    if abs(a) < A_FLOOR:
        raise ZeroDevelopmentCoefficient(
            f"development coefficient a={a!r} is 0 to roundoff (|a| < {A_FLOOR:g})"
        )
    if abs(a) >= 2:
        raise DevelopmentCoefficientOutOfRange(
            f"|a| must be < 2 for the optimised transform, got a={a!r}"
        )
    return OptParams(*_transform(a, b, c))


def _transform(a, b, c):
    """The (alpha, beta, gamma) formulas, on floats or on arrays; the caller
    checks A_FLOOR <= |a| < 2.  ``np.log`` gives a float the bits it gives
    the same value in an array, which ``math.log`` does not always match."""
    alpha = np.log((2 + a) / (2 - a))
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


def _response(x0, p, terms, k, out=None, scratch=None):
    """Closed-form response at float time indices ``k``, anchored to x0 at k = 1,
    from :func:`_response_terms` of the same x0 and (p, q, g).

    :func:`time_response`, :func:`predict`, the sweep and the order-search
    kernel all call both steps.  Parameters, terms and ``k`` broadcast, so
    ``k`` of shape (n, 1) against parameters of shape (B,) gives one column
    per parameter set.  The response goes to ``out`` and the q/p k term to
    ``scratch``, arrays of that shape, when given.
    """
    const, qp, qp2, gp = terms
    # const * exp(-p (k - 1)) + qp * k - qp2 + gp, step by step, in an
    # array, a 0-d one for scalars, that the steps can write to
    out = np.asarray(np.multiply(-p, k - 1, out=out))
    np.multiply(const, np.exp(out, out=out), out=out)
    out += np.multiply(qp, k, out=scratch)
    out -= qp2
    out += gp
    np.copyto(out, x0, where=k == 1)
    return out


def _check_finite(values: np.ndarray, name) -> None:
    """Raise NonFiniteResult naming ``name(i)``, i the first value's flat
    index that is NaN or overflows.  Call it with numpy's overflow warning
    off: a finite sum means all values are, but the sum can overflow."""
    if math.isfinite(values.sum()) or np.isfinite(values).all():
        return
    i = int(np.argmin(np.isfinite(values)))
    cause = "is NaN" if math.isnan(values.flat[i]) else "overflows"
    raise NonFiniteResult(f"{name(i)} {cause}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def time_response(model: FittedModel, k):
    """Accumulated-series response at time index k (1-based, scalar or array).

    k = 1 returns the anchored initial value exactly.  Raises
    NonFiniteResult, naming the first time index whose response overflows
    or is NaN (as a = 0 makes it), without a numpy warning.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 1):
        raise ValueError("time index must be >= 1")
    p, q, g = model.active_params
    out = _response(model.x0, p, _response_terms(model.x0, p, q, g), karr)
    _check_finite(out, lambda i: f"response at time index {karr.flat[i]:.17g}")
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


# An overflow ends in NonFiniteResult, so numpy's warnings add only noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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

    # the design with -z last, as _fit_batch factors it
    (z, *leading), Y = _design_columns(accumulate(values[:nu], r), variant)
    *rest, a = solve_least_squares(np.column_stack([*leading, z]), Y).tolist()
    base = BaseParams(*_place([a, *rest], variant))
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


# An overflow or a zero a ends in NonFiniteResult, so numpy's warnings add
# only noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    p, q, g = model.active_params
    k = np.arange(1.0, model.n_total + horizon + 1)
    xr_hat = _response(model.x0, p, _response_terms(model.x0, p, q, g), k)
    out = inverse_accumulate(xr_hat, model.r)
    _check_finite(out, lambda i: f"restored value {i + 1}")
    return out


@np.errstate(over="ignore", invalid="ignore")
def discretization_gap(model: FittedModel, k: int) -> float:
    """Residual of the discrete basic equation on the continuous response.

    Evaluates x_r(k) - x_r(k-1) + a z(k) - b (2k-1)/2 - c with the
    model's response function and its least-squares (a, b, c).  For
    plain variants this quantifies the trapezoid-rule mismatch between
    the whitening equation and its discretisation; for optimised
    variants the transform cancels it, leaving roundoff.  Raises
    NonFiniteResult, without a numpy warning, for a response or a gap that
    overflows or is NaN.
    """
    k = _whole(k)
    if k < 2:
        raise ValueError(f"gap is defined for k >= 2, got {k}")
    x_prev = time_response(model, k - 1)
    x_k = time_response(model, k)
    z = 0.5 * (x_prev + x_k)
    a, b, c = model.base.a, model.base.b, model.base.c
    gap = (x_k - x_prev) + a * z - (b * (2 * k - 1) / 2.0 + c)
    _check_finite(np.asarray(gap), lambda i: f"gap at k={k}")
    return gap
