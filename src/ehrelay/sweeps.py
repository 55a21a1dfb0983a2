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
from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import SchemeSpec, SystemParams, check_theta, link_constants
from .montecarlo import McConfig, mc_energy_outage, mc_outage, relative_error
from .outage import (energy_outage, outage_capacity, outage_dynamic_ps,
                     outage_improved)

# Each swept name and the SystemParams field it sets; theta is the
# dynamic_ps argument and sets none.
_SWEPT_FIELDS = {"M": "quad_order", "theta": None, "tx_power": "tx_power_dbm",
                 "dist_a": "dist_a", "rate": "rate_bps_hz", "beta": "time_split",
                 "sensitivity": "circuit_sensitivity_dbm"}
SWEEPABLE_PARAMS = tuple(_SWEPT_FIELDS)

CSV_COLUMNS = ("param", "scheme", "analytic", "mc", "mc_stderr", "capacity",
               "rel_err")


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
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        for v in values:
            _apply_param(self.base, self.swept_param, v)
        object.__setattr__(self, "values", values)
        schemes = tuple(self.schemes)
        if not schemes:
            raise ValueError("schemes must be nonempty")
        object.__setattr__(self, "schemes", schemes)


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
    """The operating point at swept value v; raises ValueError where v is
    out of range, mostly through SystemParams's own checks."""
    if name not in _SWEPT_FIELDS:
        raise ValueError(f"swept_param must be one of {SWEEPABLE_PARAMS}, got {name!r}")
    if name == "theta":
        check_theta(v)
        return base
    changes = {_SWEPT_FIELDS[name]: v}
    if name != "dist_a":
        return replace(base, **changes)
    separation = base.dist_a + base.dist_b
    try:
        return replace(base, **changes, dist_b=separation - v)
    except ValueError as exc:
        raise ValueError(f"dist_a={v!r} must lie inside the terminal separation "
                         f"dist_a + dist_b = {separation!r} ({exc})") from exc


def _analytic_outage(params: SystemParams, scheme: SchemeSpec):
    """Closed-form outage where one exists; the static baseline has none."""
    if scheme.scheme_id == "dynamic_ps":
        return outage_dynamic_ps(params, scheme.canonical()["theta"])
    if scheme.scheme_id == "improved":
        return outage_improved(params)
    return None


def _row(v: float, label: str, analytic, est, capacity) -> SweepRow:
    rel = None
    if analytic is not None and est.probability > 0.0:
        rel = relative_error(analytic, est)
    return SweepRow(param_value=v, scheme_id=label, analytic_outage=analytic,
                    mc_outage=est.probability, mc_std_error=est.std_error,
                    capacity=capacity, relative_error=rel)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (value, scheme) cell of the sweep."""
    rows = []
    for v in spec.values:
        point = _apply_param(spec.base, spec.swept_param, v)
        for scheme in spec.schemes:
            label = scheme.label()
            if spec.swept_param == "theta" and scheme.scheme_id == "dynamic_ps":
                scheme, label = SchemeSpec("dynamic_ps", {"theta": v}), "dynamic_ps"
            est = mc_outage(point, scheme.scheme_id, scheme.args, spec.mc)
            analytic = _analytic_outage(point, scheme)
            capacity = outage_capacity(point, est.probability if analytic is None
                                       else analytic)
            rows.append(_row(v, label, analytic, est, capacity))
        if spec.swept_param == "sensitivity":
            closed = energy_outage(point, link_constants(point))
            rows.append(_row(v, "energy_outage", closed,
                             mc_energy_outage(point, spec.mc), None))
    rows.sort(key=lambda r: (r.param_value, r.scheme_id))
    return SweepResult(swept_param=spec.swept_param, rows=tuple(rows))


class Figure(NamedTuple):
    """One reference experiment: what it sweeps, over which schemes, and
    the SystemParams fields it moves off the defaults."""

    swept_param: str
    values: tuple
    schemes: tuple
    changes: dict


_DYNAMIC = SchemeSpec("dynamic_ps", {"theta": 0.5})
# The schemes of figures 6 to 9.
_FIG_SCHEMES = (SchemeSpec("improved"), _DYNAMIC,
                SchemeSpec("static_equal", {"rho": 0.5}))

# The reference experiments by figure index: the one definition that fig(),
# the CLI, the figure script and the acceptance criteria read.
FIGURES = {
    3: Figure("M", (2.0, 3.0, 5.0, 10.0, 20.0), (_DYNAMIC,), {}),
    4: Figure("theta", tuple(round(0.05 * k, 2) for k in range(2, 19)), (_DYNAMIC,), {}),
    5: Figure("tx_power", (10.0, 15.0, 20.0, 25.0, 30.0),
              (SchemeSpec("improved"),
               *(SchemeSpec("dynamic_ps", {"theta": t}) for t in (0.3, 0.5, 0.8)),
               *(SchemeSpec("static_equal", {"rho": r}) for r in (0.3, 0.5, 0.7))), {}),
    6: Figure("dist_a", tuple(float(d) for d in range(2, 19, 2)), _FIG_SCHEMES,
              {"rate_bps_hz": 3.0}),
    7: Figure("rate", tuple(float(u) for u in range(1, 11)), _FIG_SCHEMES, {}),
    8: Figure("beta", tuple(round(0.05 * k, 2) for k in range(1, 10)), _FIG_SCHEMES,
              {"tx_power_dbm": 20.0, "rate_bps_hz": 5.0}),
    9: Figure("sensitivity", (-30.0, -25.0, -20.0, -15.0, -10.0), _FIG_SCHEMES, {}),
}


def fig(n: int, overrides: dict | None = None,
        mc: McConfig | None = None) -> SweepResult:
    """Run the sweep behind reference figure n, a key of FIGURES.

    overrides maps SystemParams field names to replacement values and wins
    over the figure's own parameter choices, so callers can move any figure
    to a different operating point.
    """
    if n not in FIGURES:
        raise ValueError(f"figure index must be one of {tuple(FIGURES)}, got {n!r}")
    swept, values, schemes, changes = FIGURES[n]
    base = replace(SystemParams(), **{**changes, **(overrides or {})})
    spec = SweepSpec(swept_param=swept, values=values, schemes=schemes,
                     base=base, mc=mc if mc is not None else McConfig())
    return run_sweep(spec)
