"""Outage analysis toolkit for a three-step SWIPT two-way relay network.

Closed-form outage probabilities for adaptive power-splitting relay control,
an exact Monte Carlo mirror of the same channel model, and parameter-sweep
plumbing that reproduces the reference experiments as CSV tables.
"""

from .model import (DerivedConstants, SchemeSpec, SystemParams, dbi_to_linear,
                    dbm_to_watts, derive_constants)
from .montecarlo import McConfig, McEstimate, mc_energy_outage, mc_outage
from .outage import (diversity_slope, energy_outage, outage_capacity,
                     outage_dynamic_ps, outage_improved)
from .sweeps import SweepResult, SweepRow, SweepSpec, fig, run_sweep
from .validation import CriterionResult, all_passed, report_csv, run_all

__all__ = [
    "CriterionResult",
    "DerivedConstants",
    "McConfig",
    "McEstimate",
    "SchemeSpec",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SystemParams",
    "all_passed",
    "dbi_to_linear",
    "dbm_to_watts",
    "derive_constants",
    "diversity_slope",
    "energy_outage",
    "fig",
    "mc_energy_outage",
    "mc_outage",
    "outage_capacity",
    "outage_dynamic_ps",
    "outage_improved",
    "report_csv",
    "run_all",
    "run_sweep",
]
