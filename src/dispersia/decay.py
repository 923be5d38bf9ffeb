"""Statistical readout of energy traces: exponential vs polynomial decay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .dispersion import PassivityReport
    from .energy_trace import EnergyTrace


class UnusableTrace(ValueError):
    pass


R2_FLOOR = 0.95
R2_MARGIN = 0.01


@dataclass(frozen=True)
class DecayReport:
    kind: str  # "exponential" | "polynomial" | "inconclusive"
    rate: Optional[float] = None  # energy ~ e^{-rate t}
    slope: Optional[float] = None  # energy ~ t^{slope}
    fit_window: tuple[float, float] = (0.0, 0.0)
    r_squared: float = 0.0
    residual: float = 0.0


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res < 1e-20 else 0.0)
    rmse = float(np.sqrt(ss_res / x.size))
    return slope, intercept, r2, rmse


def fit_decay(trace: EnergyTrace, window: tuple[float, float]) -> DecayReport:
    """Fit log E vs t and log E vs log t over the window; pick the better model.

    Inconclusive when neither model reaches r^2 >= 0.95 or the winner leads by
    less than 0.01 in r^2.
    """
    t_start, t_end = window
    mask = (trace.times >= t_start) & (trace.times <= t_end)
    t = trace.times[mask]
    e = trace.energy[mask]
    keep = (e > 0.0) & (t > 0.0)
    t, e = t[keep], e[keep]
    if t.size < 20:
        raise UnusableTrace(
            f"window [{t_start}, {t_end}] leaves {t.size} usable samples (need >= 20)"
        )
    loge = np.log(e)
    exp_slope, _, exp_r2, exp_rmse = _linfit(t, loge)
    pol_slope, _, pol_r2, pol_rmse = _linfit(np.log(t), loge)

    window_out = (float(t[0]), float(t[-1]))
    exp_ok = exp_r2 >= R2_FLOOR and exp_slope < 0
    pol_ok = pol_r2 >= R2_FLOOR and pol_slope < 0
    if exp_ok and (not pol_ok or exp_r2 >= pol_r2 + R2_MARGIN):
        return DecayReport("exponential", rate=-exp_slope, fit_window=window_out,
                           r_squared=exp_r2, residual=exp_rmse)
    if pol_ok and (not exp_ok or pol_r2 >= exp_r2 + R2_MARGIN):
        return DecayReport("polynomial", slope=pol_slope, fit_window=window_out,
                           r_squared=pol_r2, residual=pol_rmse)
    return DecayReport("inconclusive", fit_window=window_out,
                       r_squared=max(exp_r2, pol_r2), residual=min(exp_rmse, pol_rmse))


@dataclass(frozen=True)
class ExpectedDecay:
    kind: str  # "exponential" | "polynomial"
    energy_slope_bound: Optional[float] = None  # for polynomial: slope <= bound


def predict(report: PassivityReport) -> Optional[ExpectedDecay]:
    """Map a decay exponent m to the predicted asymptotic energy behavior.

    m = 0 gives exponential decay; m > 0 gives norm decay t^{-1/m}, hence an
    energy slope bound of -2/m for suitably weighted initial data.
    """
    if report.m is None:
        return None
    if report.m == 0:
        return ExpectedDecay("exponential")
    return ExpectedDecay("polynomial", energy_slope_bound=-2.0 / report.m)
