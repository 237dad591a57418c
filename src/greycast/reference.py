"""Bundled reference results and the machinery to recompute them.

Each case stores the published reference values as exact decimal
strings (display fidelity preserved; parsed to floats for comparison)
keyed by table, row and column.  ``run_case`` refits every recomputable
column with this package and reports a per-cell verdict.  ENGM columns
come from an externally defined model that is out of scope here, so
they are carried for display and marked ``external`` rather than
recomputed.  Every cell, external or not, is built by :func:`_cell`, and
external columns pass through the same loops as fitted ones with
nothing computed.

Tolerances per cell class: fitted/predicted values compare at 1e-3
relative; percentage metrics at 0.02 points for the flagship optimised
columns of the oilfield and settlement cases and 0.05 points otherwise;
agreement index at 1e-3; signed/absolute mean errors at 5e-3; the
parameter-gap table at 5e-5 (4-decimal display exactness); per-period
relative-error cells at 2e-4, which absorbs the reference tables having
been derived from 4-decimal rounded values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import _extended_labels, load_bundled
from .metrics import evaluate, relative_errors
from .models import ModelVariant, alpha_gap, fit, predict

__all__ = ["CellCheck", "run_case", "CASES"]

VALUE_REL_TOL = 1e-3
PCT_TOL_TIGHT = 0.02
PCT_TOL = 0.05
IA_TOL = 1e-3
MEAN_ERR_TOL = 5e-3
GAP_TOL = 5e-5
RELERR_TOL = 2e-4


@dataclass(frozen=True)
class CellCheck:
    case: str
    table: str
    row: str
    column: str
    expected: str
    computed: float | None
    tol: float
    kind: str  # "value" (relative) or an absolute class
    status: str  # "pass" | "fail" | "external"

    @property
    def expected_value(self) -> float:
        return float(self.expected)

    @property
    def delta(self) -> float | None:
        if self.computed is None:
            return None
        return self.computed - self.expected_value


def _cell(case, table, row, column, expected, computed=None, tol=0.0, kind="value") -> CellCheck:
    """The verdict on one cell.  With nothing computed the cell is external,
    displayed only, and carries no tolerance."""
    if computed is None:
        return CellCheck(case, table, row, column, expected, None, 0.0, "value", "external")
    target = float(expected)
    bound = tol * abs(target) if kind == "value" else tol
    status = "pass" if abs(computed - target) <= bound else "fail"
    return CellCheck(case, table, row, column, expected, computed, tol, kind, status)


# --- parameter-gap table -------------------------------------------------

TABLE1 = {
    "0.1": ("0.0001", "0.0008"),
    "0.2": ("0.0007", "0.0034"),
    "0.3": ("0.0023", "0.0076"),
    "0.5": ("0.0108", "0.0217"),
    "0.7": ("0.0309", "0.0441"),
    "1.0": ("0.0986", "0.0986"),
    "1.3": ("0.2506", "0.1928"),
    "1.6": ("0.5972", "0.3733"),
    "1.9": ("1.7636", "0.9282"),
}


def check_table1() -> list[CellCheck]:
    cells = []
    for a_str, (gap_str, ratio_str) in TABLE1.items():
        a = float(a_str)
        gap = alpha_gap(a)
        cells.append(_cell("table1", "table1", a_str, "eps1", gap_str, gap, GAP_TOL, "gap"))
        cells.append(
            _cell("table1", "table1", a_str, "eps1_over_a", ratio_str, gap / a, GAP_TOL, "gap")
        )
    return cells


# --- forecasting cases ---------------------------------------------------
# Column spec: (column id, variant or None for external, order r,
#               fitted/predicted values, {metric: expected},
#               [per-period relative errors,] pct tolerance)

OILFIELD_NU = 11
OILFIELD_COLUMNS = (
    (
        "engm",
        None,
        "1",
        ("73.8217", "138.4900", "195.4541", "247.9776", "296.4067", "341.0604",
         "382.2332", "420.1964", "455.2001", "487.4752", "517.2342", "544.6734",
         "569.9736", "593.3015"),
        {"rmspepr": "0.4521", "rmspepo": "2.0066"},
        PCT_TOL,
    ),
    (
        "fagm11",
        ModelVariant.FAGM11,
        "0.1106",
        ("73.8217", "138.1621", "195.5377", "247.7638", "295.7629", "340.1238",
         "381.2700", "419.5291", "455.1670", "488.4068", "519.4402", "548.4350",
         "575.5400", "600.8887"),
        {"rmspepr": "0.4582", "rmspepo": "1.0185"},
        PCT_TOL,
    ),
    (
        "fagm11k",
        ModelVariant.FAGM11K,
        "0.4073",
        ("73.8217", "137.1758", "196.1598", "249.3183", "297.2895", "341.0008",
         "381.2882", "418.8204", "454.1099", "487.5452", "519.4217", "549.9665",
         "579.3572", "607.7346"),
        {"rmspepr": "0.3539", "rmspepo": "0.3617"},
        PCT_TOL,
    ),
    (
        "fagmo",
        ModelVariant.FAGMO11K,
        "0.4052",
        ("73.8217", "136.4573", "195.7633", "249.1781", "297.2750", "341.0322",
         "381.3320", "418.8699", "454.1712", "487.6290", "519.5393", "550.1281",
         "579.5714", "608.0086"),
        {"rmspepr": "0.3259", "rmspepo": "0.3332"},
        PCT_TOL_TIGHT,
    ),
)

SETTLEMENT_NU = 11
SETTLEMENT_COLUMNS = (
    (
        "ongm",
        ModelVariant.ONGM11K,
        "1",
        ("23.3600", "42.1779", "59.2549", "72.8374", "83.6405", "92.2330",
         "99.0672", "104.5030", "108.8264", "112.2652", "115.0002"),
        {"rmspe": "1.2730"},
        PCT_TOL,
    ),
    (
        "fagm11",
        ModelVariant.FAGM11,
        "0.0065",
        ("23.3600", "43.3517", "59.4403", "72.4009", "82.8451", "91.2620",
         "98.0442", "103.5079", "107.9079", "111.4497", "114.2991"),
        {"rmspe": "1.3257"},
        PCT_TOL,
    ),
    (
        "fagm11k",
        ModelVariant.FAGM11K,
        "0.2266",
        ("23.3600", "43.0586", "58.8205", "71.9763", "83.0247", "92.2158",
         "99.6885", "105.5215", "109.7568", "112.4117", "113.4857"),
        {"rmspe": "0.6030"},
        PCT_TOL,
    ),
    (
        "fagmo",
        ModelVariant.FAGMO11K,
        "0.2295",
        ("23.3600", "43.0644", "58.8124", "71.9545", "82.9932", "92.1789",
         "99.6491", "105.4805", "109.7127", "112.3598", "113.4181"),
        {"rmspe": "0.6011"},
        PCT_TOL_TIGHT,
    ),
)

NUCLEAR_NU = 10
NUCLEAR_HORIZON = 3  # extrapolated periods beyond the data file
NUCLEAR_COLUMNS = (
    (
        "engm",
        None,
        "1",
        ("12.4000", "14.9788", "15.6744", "16.6846", "18.1520", "20.2831",
         "23.3785", "27.8741", "34.4036", "43.8871", "57.6610", "77.6662",
         "106.7219", "148.9226", "210.2150"),
        {"rmspepr": "8.3788", "rmspepo": "30.3663", "rmspe": "14.5667",
         "ia": "0.9538", "ae": "4.0536", "mae": "4.0536"},
        ("0", "0.0623", "0.0112", "0.0493", "0.0869", "0.0402", "0.0627",
         "0.1017", "0.1468", "0.1370", "0.1963", "0.3820"),
        PCT_TOL,
    ),
    (
        "ongm",
        ModelVariant.ONGM11K,
        "1",
        ("12.4000", "14.4788", "15.1057", "16.0032", "17.2884", "19.1286",
         "21.7635", "25.5363", "30.9383", "38.6732", "49.7483", "65.6063",
         "88.3125", "120.8244", "167.3766"),
        {"rmspepr": "2.0494", "rmspepo": "12.0510", "rmspe": "5.2635",
         "ia": "0.9911", "ae": "1.0225", "mae": "1.1896"},
        ("0", "0.0269", "0.0254", "0.0065", "0.0352", "0.0190", "0.0108",
         "0.0093", "0.0313", "0.0019", "0.0321", "0.1674"),
        PCT_TOL,
    ),
    (
        "fagm11",
        ModelVariant.FAGM11,
        "1.4127",
        ("12.4000", "15.0242", "13.9808", "15.0566", "16.9219", "19.3953",
         "22.4687", "26.1951", "30.6625", "35.9872", "42.3129", "49.8133",
         "58.6959", "69.2074", "81.6403"),
        {"rmspepr": "4.8680", "rmspepo": "11.7968", "rmspe": "6.5529",
         "ia": "0.9887", "ae": "-1.1818", "mae": "1.7105"},
        ("0", "0.0655", "0.0980", "0.0530", "0.0133", "0.0054", "0.0213",
         "0.0354", "0.0221", "0.0677", "0.1221", "0.1136"),
        PCT_TOL,
    ),
    (
        "fagm11k",
        ModelVariant.FAGM11K,
        "1.0593",
        ("12.4000", "14.7054", "15.0121", "15.8012", "17.0700", "18.9344",
         "21.5861", "25.3029", "30.4740", "37.6390", "47.5433", "61.2149",
         "80.0704", "106.0614", "141.8758"),
        {"rmspepr": "2.3299", "rmspepo": "6.3828", "rmspe": "3.3636",
         "ia": "0.9971", "ae": "0.2736", "mae": "0.8043"},
        ("0", "0.0429", "0.0315", "0.0062", "0.0222", "0.0290", "0.0188",
         "0.0001", "0.0158", "0.0249", "0.0136", "0.0892"),
        PCT_TOL,
    ),
    (
        "fagmo",
        ModelVariant.FAGMO11K,
        "1.1595",
        ("12.4000", "15.0891", "14.8608", "15.5886", "16.9760", "19.0534",
         "21.9432", "25.8633", "31.1013", "38.0473", "47.2178", "59.2933",
         "75.1679", "96.0147", "123.3723"),
        {"rmspepr": "3.1409", "rmspepo": "4.1502", "rmspe": "3.3304",
         "ia": "0.9985", "ae": "0.2526", "mae": "0.7513"},
        ("0", "0.0701", "0.0412", "0.0196", "0.0165", "0.0231", "0.0026",
         "0.0222", "0.0367", "0.0143", "0.0204", "0.0550"),
        PCT_TOL,
    ),
)

# metric -> (kind, tolerance); None is the column's percentage tolerance
_METRICS = {
    "rmspepr": ("pct", None),
    "rmspepo": ("pct", None),
    "rmspe": ("pct", None),
    "ia": ("ia", IA_TOL),
    "ae": ("mean_err", MEAN_ERR_TOL),
    "mae": ("mean_err", MEAN_ERR_TOL),
}


def _check_forecast_case(case, table, nu, columns, horizon=0,
                         metric_table=None) -> list[CellCheck]:
    data = load_bundled(case)
    n = len(data)
    row_labels = [str(lab) for lab in _extended_labels(data.labels, horizon)]
    metric_table = metric_table or table
    cells: list[CellCheck] = []
    for column, variant, r, values, metrics, *relerrs, pct_tol in columns:
        if variant is None:
            got_values = got_relerrs = [None] * len(row_labels)
            report = None
        else:
            model = fit(data.values, float(r), variant, nu, labels=data.labels)
            restored = predict(model, horizon)
            got_values = restored.tolist()
            report = evaluate(data.values, restored[:n], nu)
            got_relerrs = relative_errors(data.values, restored[:n]).tolist()
        for row, expected, got in zip(row_labels, values, got_values):
            cells.append(_cell(case, table, row, column, expected, got, VALUE_REL_TOL))
        for metric, expected in metrics.items():
            kind, tol = _METRICS[metric]
            got = None if report is None else getattr(report, metric)
            cells.append(_cell(case, metric_table, metric, column, expected, got,
                               pct_tol if tol is None else tol, kind))
        for expected_relerrs in relerrs:  # zero or one row of them
            for row, expected, got in zip(row_labels, expected_relerrs, got_relerrs):
                cells.append(_cell(case, metric_table, f"relerr:{row}", column, expected,
                                   got, RELERR_TOL, "relerr"))
    return cells


# case (also the bundled dataset's name) -> _check_forecast_case arguments
_FORECAST_CASES = {
    "oilfield": ("table2", OILFIELD_NU, OILFIELD_COLUMNS),
    "settlement": ("table3", SETTLEMENT_NU, SETTLEMENT_COLUMNS),
    "nuclear": ("table4", NUCLEAR_NU, NUCLEAR_COLUMNS, NUCLEAR_HORIZON, "table5"),
}

CASES = ("table1", *_FORECAST_CASES)


def run_case(name: str) -> list[CellCheck]:
    if name == "table1":
        return check_table1()
    if name not in _FORECAST_CASES:
        raise ValueError(f"unknown case {name!r} (expected one of {CASES})")
    return _check_forecast_case(name, *_FORECAST_CASES[name])
