"""Parameter sweeps reproducing the reference experiment set as flat tables.

Every experiment is a sweep of one parameter against a list of relay
schemes; each (value, scheme) pair yields one row holding the closed-form
outage where one exists, the Monte Carlo estimate, and the outage capacity.
The CSV serialization is byte-stable for a fixed spec, seed and trial
count, which the determinism checks rely on.  A row's scheme is its spec's
label, which spells every argument, defaults included; a theta sweep's rows
carry the family label dynamic_ps, the swept value setting their theta.
A sweep names what it sweeps as SystemParams does, by the field's name, or
theta, the dynamic_ps argument.

run_sweeps simulates all cells of several sweeps, such as the reference
figures, in one montecarlo.mc_outages batch at one budget, the McConfig it
takes (a SweepSpec holds none), so they read one draw of the gains per
block: common random numbers, which leave the Monte Carlo errors of the
rows correlated.  A cell counts alike in any batch, so each table is the
one its sweep gives alone, and run_sweep is the one-sweep batch.  Cells
share the kernel's passes as montecarlo's docstring says, and rows alike
but for M, as in figure 3, share one simulated count.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace

from .model import SchemeSpec, SystemParams, check_theta, real_number
from .montecarlo import McConfig, _relative_error, mc_outages
from .outage import (energy_outage, outage_capacity, outage_dynamic_ps,
                     outage_improved)

# What a sweep may set at each value: a SystemParams field, or theta, the
# dynamic_ps argument.  The fading means are no such field, since every cell
# of a simulated batch shares them.
SWEEPABLE_PARAMS = ("quad_order", "theta", "tx_power_dbm", "dist_a", "rate_bps_hz",
                    "time_split", "circuit_sensitivity_dbm")

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
    stays fixed.  A circuit_sensitivity_dbm sweep also reports the energy outage
    as its own pseudo-scheme row per value.  A theta sweep sets the theta of
    its dynamic_ps scheme, so it takes exactly one, SchemeSpec("dynamic_ps"):
    a spec at another theta would not run at it.  No scheme may be given
    twice: equal specs run alike and share one label.
    """

    swept_param: str
    values: tuple
    schemes: tuple
    base: SystemParams

    def __post_init__(self) -> None:
        if not isinstance(self.base, SystemParams):
            raise ValueError(f"base must be a SystemParams, got {self.base!r}")
        values = tuple(real_number(f"values[{i}]", v) for i, v in enumerate(self.values))
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
        seen = set()
        for i, scheme in enumerate(schemes):
            if not isinstance(scheme, SchemeSpec):
                raise ValueError(f"schemes[{i}] must be a SchemeSpec, got {scheme!r}")
            if scheme in seen:
                raise ValueError(f"scheme {scheme.label()!r} is given twice")
            seen.add(scheme)
        dynamic = [s.label() for s in schemes if s.scheme_id == "dynamic_ps"]
        if self.swept_param == "theta" and len(dynamic) != 1:
            raise ValueError(f"a theta sweep takes one dynamic_ps scheme, got {dynamic}")
        if self.swept_param == "theta" and SchemeSpec("dynamic_ps") not in schemes:
            raise ValueError("a theta sweep's values set theta, so its dynamic_ps scheme "
                             f"must be SchemeSpec('dynamic_ps'), got {dynamic[0]}")
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


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _apply_param(base: SystemParams, name: str, v: float) -> SystemParams:
    """The operating point at swept value v; raises ValueError where v is
    out of range, mostly through SystemParams's own checks."""
    if name not in SWEEPABLE_PARAMS:
        raise ValueError(f"swept_param must be one of {SWEEPABLE_PARAMS}, got {name!r}")
    if name == "theta":
        check_theta(v)
        return base
    if name != "dist_a":
        return replace(base, **{name: v})
    separation = base.dist_a + base.dist_b
    try:
        return replace(base, dist_a=v, dist_b=separation - v)
    except ValueError as exc:
        raise ValueError(f"dist_a={v!r} must lie inside the terminal separation "
                         f"dist_a + dist_b = {separation!r} ({exc})") from exc


def _refuse_swept_override(what: str, swept_param: str, overrides) -> None:
    """Refuse an override of the field the sweep what sets at each value,
    which the values would silently replace; fig() and `ehrelay sweep` share
    this rule."""
    if swept_param in overrides:
        raise ValueError(f"{what} sweeps {swept_param}, so overrides cannot set it")


def _analytic_outage(params: SystemParams, scheme: SchemeSpec):
    """Closed-form outage where one exists; the static baseline has none."""
    if scheme.scheme_id == "dynamic_ps":
        return outage_dynamic_ps(params, scheme.args["theta"])
    if scheme.scheme_id == "improved":
        return outage_improved(params)
    return None


def _row(v: float, label: str, analytic, est, capacity) -> SweepRow:
    rel = None
    if analytic is not None and est.probability > 0.0:
        rel = _relative_error(analytic, est)
    return SweepRow(param_value=v, scheme_id=label, analytic_outage=analytic,
                    mc_outage=est.probability, mc_std_error=est.std_error,
                    capacity=capacity, relative_error=rel)


def run_sweeps(specs, mc: McConfig) -> list:
    """One SweepResult per spec of a nonempty iterable, in order, every
    (value, scheme) cell of every spec simulated in one batch at the one
    budget mc, a McConfig."""
    if not isinstance(mc, McConfig):
        raise ValueError(f"mc must be a McConfig, got {mc!r}")
    if not (specs := tuple(specs)):
        raise ValueError("a batch of sweeps takes at least one spec, got none")
    tables = [[] for _ in specs]
    cells = []    # (rows, value, label, point, scheme), scheme None for the energy row
    for rows, spec in zip(tables, specs):
        for v in spec.values:
            point = _apply_param(spec.base, spec.swept_param, v)
            for scheme in spec.schemes:
                label = scheme.label()
                if spec.swept_param == "theta" and scheme.scheme_id == "dynamic_ps":
                    scheme, label = SchemeSpec("dynamic_ps", {"theta": v}), "dynamic_ps"
                cells.append((rows, v, label, point, scheme))
            if spec.swept_param == "circuit_sensitivity_dbm":
                cells.append((rows, v, "energy_outage", point, None))
    estimates = mc_outages([(point, scheme) for *_, point, scheme in cells], mc)
    for (rows, v, label, point, scheme), est in zip(cells, estimates):
        if scheme is None:
            rows.append(_row(v, label, energy_outage(point), est, None))
        else:
            analytic = _analytic_outage(point, scheme)
            rows.append(_row(v, label, analytic, est, outage_capacity(
                point, est.probability if analytic is None else analytic)))
    for rows in tables:
        rows.sort(key=lambda r: (r.param_value, r.scheme_id))
    return [SweepResult(spec.swept_param, tuple(rows)) for spec, rows in zip(specs, tables)]


def run_sweep(spec: SweepSpec, mc: McConfig) -> SweepResult:
    """Evaluate every (value, scheme) cell of the sweep at the budget mc."""
    return run_sweeps((spec,), mc)[0]


_DYNAMIC = SchemeSpec("dynamic_ps", {"theta": 0.5})
# The schemes of figures 6 to 9.
_FIG_SCHEMES = (SchemeSpec("improved"), _DYNAMIC,
                SchemeSpec("static_equal", {"rho": 0.5}))


def _figure(swept_param: str, values: tuple, schemes: tuple, **changes) -> SweepSpec:
    """A reference experiment; changes move its operating point off the defaults."""
    return SweepSpec(swept_param, values, schemes, base=replace(SystemParams(), **changes))


# The reference experiments by figure index: the one definition that fig(),
# `ehrelay fig` and the acceptance criteria read.
FIGURES = {
    3: _figure("quad_order", (2.0, 3.0, 5.0, 10.0, 20.0), (_DYNAMIC,)),
    4: _figure("theta", tuple(round(0.05 * k, 2) for k in range(2, 19)), (_DYNAMIC,)),
    5: _figure("tx_power_dbm", (10.0, 15.0, 20.0, 25.0, 30.0),
               (SchemeSpec("improved"),
                *(SchemeSpec("dynamic_ps", {"theta": t}) for t in (0.3, 0.5, 0.8)),
                *(SchemeSpec("static_equal", {"rho": r}) for r in (0.3, 0.5, 0.7)))),
    6: _figure("dist_a", tuple(float(d) for d in range(2, 19, 2)), _FIG_SCHEMES,
               rate_bps_hz=3.0),
    7: _figure("rate_bps_hz", tuple(float(u) for u in range(1, 11)), _FIG_SCHEMES),
    8: _figure("time_split", tuple(round(0.05 * k, 2) for k in range(1, 10)), _FIG_SCHEMES,
               tx_power_dbm=20.0, rate_bps_hz=5.0),
    9: _figure("circuit_sensitivity_dbm", (-30.0, -25.0, -20.0, -15.0, -10.0), _FIG_SCHEMES),
}


def _figure_spec(n: int, overrides: dict | None) -> SweepSpec:
    """FIGURES[n] moved by overrides; see fig()."""
    if n not in FIGURES:
        raise ValueError(f"figure index must be one of {tuple(FIGURES)}, got {n!r}")
    spec, overrides = FIGURES[n], overrides or {}
    if unknown := sorted(set(overrides) - {f.name for f in fields(SystemParams)}):
        raise ValueError(f"overrides name no SystemParams field: {unknown}")
    _refuse_swept_override(f"figure {n}", spec.swept_param, overrides)
    return replace(spec, base=replace(spec.base, **overrides))


def fig(n: int, overrides: dict | None = None,
        mc: McConfig | None = None) -> SweepResult:
    """Run the sweep behind reference figure n, a key of FIGURES.

    overrides maps SystemParams field names to values that replace the
    figure's own, so callers can move any figure to another operating point;
    the field the figure sweeps, which each sweep value replaces, is refused.
    mc is the Monte Carlo budget, McConfig() where None.
    """
    return run_sweep(_figure_spec(n, overrides), McConfig() if mc is None else mc)
