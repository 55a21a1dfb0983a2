"""Parameter sweeps reproducing the reference experiment set as flat tables.

Every experiment is a sweep of one parameter against a list of relay
schemes; each (value, scheme) pair yields one row holding the closed-form
outage where one exists, the Monte Carlo estimate, and the outage capacity.
The CSV serialization is byte-stable for a fixed spec and seed, which the
determinism checks rely on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

from .model import SystemParams, link_constants
from .montecarlo import (McConfig, _parse_scheme_args, mc_energy_outage,
                         mc_outage, relative_error)
from .outage import (energy_outage, outage_capacity, outage_dynamic_ps,
                     outage_improved)

SWEEPABLE_PARAMS = ("M", "theta", "tx_power", "dist_a", "rate", "beta",
                    "sensitivity")

CSV_COLUMNS = ("param", "scheme", "analytic", "mc", "mc_stderr", "capacity",
               "rel_err")


@dataclass(frozen=True)
class SchemeSpec:
    """One relay scheme to evaluate, with its fixed control arguments."""

    scheme_id: str
    args: dict = field(default_factory=dict)

    def label(self) -> str:
        if not self.args:
            return self.scheme_id
        parts = ",".join(f"{k}={v:g}" for k, v in sorted(self.args.items()))
        return f"{self.scheme_id}:{parts}"


@dataclass(frozen=True)
class SweepRow:
    """One table row; its fields, in order, are the CSV_COLUMNS."""

    param_value: float
    scheme_id: str
    analytic_outage: float | None
    mc_outage: float
    mc_std_error: float
    capacity: float | None
    relative_error: float | None


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: sweep one parameter over values for a set of schemes.

    A dist_a sweep moves the relay along the line between the terminals:
    dist_b is adjusted so the terminal separation base.dist_a + base.dist_b
    stays fixed.  A sensitivity sweep additionally reports the energy outage
    as its own pseudo-scheme row per value.
    """

    swept_param: str
    values: tuple
    schemes: tuple
    base: SystemParams
    mc: McConfig

    def __post_init__(self) -> None:
        if self.swept_param not in SWEEPABLE_PARAMS:
            raise ValueError(f"swept_param must be one of {SWEEPABLE_PARAMS}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        for v in values:
            self._check_domain(v)
        object.__setattr__(self, "values", values)
        schemes = tuple(self.schemes)
        if not schemes:
            raise ValueError("schemes must be nonempty")
        for scheme in schemes:
            _parse_scheme_args(scheme.scheme_id, scheme.args)
        object.__setattr__(self, "schemes", schemes)

    def _check_domain(self, v: float) -> None:
        name = self.swept_param
        if name == "M" and (v != int(v) or v < 1):
            raise ValueError("M values must be integers >= 1")
        if name == "theta" and not 0.0 < v < 1.0:
            raise ValueError("theta values must lie inside (0, 1)")
        if name == "dist_a" and not 0.0 < v < self.base.dist_a + self.base.dist_b:
            raise ValueError("dist_a values must lie inside the terminal separation")
        if name == "rate" and not v > 0.0:
            raise ValueError("rate values must be positive")
        if name == "beta" and not 0.0 < v < 0.5:
            raise ValueError("beta values must lie inside (0, 0.5)")


@dataclass(frozen=True)
class SweepResult:
    swept_param: str
    rows: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([v if isinstance(v, str) else _cell(v)
                             for v in vars(row).values()])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = [dict(zip(CSV_COLUMNS, vars(row).values())) for row in self.rows]
        return json.dumps(payload, indent=2) + "\n"


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _apply_param(base: SystemParams, name: str, v: float) -> SystemParams:
    if name == "M":
        return replace(base, quad_order=int(v))
    if name == "theta":
        return base
    if name == "tx_power":
        return replace(base, tx_power_dbm=v)
    if name == "dist_a":
        separation = base.dist_a + base.dist_b
        return replace(base, dist_a=v, dist_b=separation - v)
    if name == "rate":
        return replace(base, rate_bps_hz=v)
    if name == "beta":
        return replace(base, time_split=v)
    if name == "sensitivity":
        return replace(base, circuit_sensitivity_dbm=v)
    raise ValueError(f"unknown swept parameter {name!r}")


def _analytic_outage(params: SystemParams, scheme_id: str, args: dict):
    """Closed-form outage where one exists; the static baseline has none."""
    if scheme_id == "dynamic_ps":
        return outage_dynamic_ps(params, args.get("theta", 0.5))
    if scheme_id == "improved":
        return outage_improved(params)
    return None


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (value, scheme) cell of the sweep."""
    rows = []
    for v in spec.values:
        point = _apply_param(spec.base, spec.swept_param, v)
        for scheme in spec.schemes:
            args = dict(scheme.args)
            label = scheme.label()
            if spec.swept_param == "theta" and scheme.scheme_id == "dynamic_ps":
                args["theta"] = v
                label = scheme.scheme_id
            est = mc_outage(point, scheme.scheme_id, args, spec.mc)
            analytic = _analytic_outage(point, scheme.scheme_id, args)
            outage_for_capacity = analytic if analytic is not None else est.probability
            rel = None
            if analytic is not None and est.probability > 0.0:
                rel = relative_error(analytic, est)
            rows.append(SweepRow(
                param_value=v,
                scheme_id=label,
                analytic_outage=analytic,
                mc_outage=est.probability,
                mc_std_error=est.std_error,
                capacity=outage_capacity(point, outage_for_capacity),
                relative_error=rel,
            ))
        if spec.swept_param == "sensitivity":
            closed = energy_outage(point, link_constants(point))
            est = mc_energy_outage(point, spec.mc)
            rel = None
            if est.probability > 0.0:
                rel = relative_error(closed, est)
            rows.append(SweepRow(
                param_value=v,
                scheme_id="energy_outage",
                analytic_outage=closed,
                mc_outage=est.probability,
                mc_std_error=est.std_error,
                capacity=None,
                relative_error=rel,
            ))
    rows.sort(key=lambda r: (r.param_value, r.scheme_id))
    return SweepResult(swept_param=spec.swept_param, rows=tuple(rows))


def _default_schemes() -> tuple:
    return (SchemeSpec("improved"),
            SchemeSpec("dynamic_ps", {"theta": 0.5}),
            SchemeSpec("static_equal", {"rho": 0.5}))


def fig(n: int, overrides: dict | None = None,
        mc: McConfig | None = None) -> SweepResult:
    """Run the sweep behind reference figure n (3 through 9).

    overrides maps SystemParams field names to replacement values and is
    applied after the figure's own parameter choices, so callers can move
    any figure to a different operating point.
    """
    if n not in range(3, 10):
        raise ValueError("figure index must be in 3..9")
    mc = mc if mc is not None else McConfig()
    base = SystemParams()

    if n == 3:
        swept, values = "M", (2.0, 3.0, 5.0, 10.0, 20.0)
        schemes = (SchemeSpec("dynamic_ps", {"theta": 0.5}),)
    elif n == 4:
        swept = "theta"
        values = tuple(round(0.05 * k, 2) for k in range(2, 19))
        schemes = (SchemeSpec("dynamic_ps", {"theta": 0.5}),)
    elif n == 5:
        swept, values = "tx_power", (10.0, 15.0, 20.0, 25.0, 30.0)
        schemes = (SchemeSpec("improved"),
                   SchemeSpec("dynamic_ps", {"theta": 0.3}),
                   SchemeSpec("dynamic_ps", {"theta": 0.5}),
                   SchemeSpec("dynamic_ps", {"theta": 0.8}),
                   SchemeSpec("static_equal", {"rho": 0.3}),
                   SchemeSpec("static_equal", {"rho": 0.5}),
                   SchemeSpec("static_equal", {"rho": 0.7}))
    elif n == 6:
        swept = "dist_a"
        values = tuple(float(d) for d in range(2, 19, 2))
        base = replace(base, rate_bps_hz=3.0)
        schemes = _default_schemes()
    elif n == 7:
        swept = "rate"
        values = tuple(float(u) for u in range(1, 11))
        schemes = _default_schemes()
    elif n == 8:
        swept = "beta"
        values = tuple(round(0.05 * k, 2) for k in range(1, 10))
        base = replace(base, tx_power_dbm=20.0, rate_bps_hz=5.0)
        schemes = _default_schemes()
    else:
        swept, values = "sensitivity", (-30.0, -25.0, -20.0, -15.0, -10.0)
        schemes = _default_schemes()

    if overrides:
        base = replace(base, **overrides)
    spec = SweepSpec(swept_param=swept, values=values, schemes=schemes,
                     base=base, mc=mc)
    return run_sweep(spec)
