"""Outage analysis toolkit for a three-step SWIPT two-way relay network.

Closed-form outage probabilities for adaptive power-splitting relay control,
an exact Monte Carlo mirror of the same channel model, and parameter-sweep
plumbing that reproduces the reference experiments as CSV tables.

Importing the package loads none of its modules: each public name below
imports its module the first time it is read (PEP 562), so a caller pays
only for the layers it uses.  A submodule imports as usual, with
``from ehrelay import montecarlo`` or ``import ehrelay.montecarlo``.
"""

import importlib

# The public names of each module.
_PUBLIC = {
    "model": ("DerivedConstants", "SchemeSpec", "SystemParams", "dbi_to_linear",
              "dbm_to_watts", "derive_constants"),
    "montecarlo": ("McConfig", "McEstimate", "mc_energy_outage", "mc_outage"),
    "outage": ("diversity_slope", "energy_outage", "outage_capacity",
               "outage_dynamic_ps", "outage_improved"),
    "sweeps": ("SweepResult", "SweepRow", "SweepSpec", "fig", "run_sweep"),
    "validation": ("CriterionResult", "all_passed", "report_csv", "run_all"),
}
_WHERE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_WHERE)


def __getattr__(name: str):
    """A public name, imported from its module on first read and kept as a
    global, so that later reads do not come here."""
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_WHERE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
