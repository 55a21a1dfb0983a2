"""The package's public surface: exactly the user-facing names."""

import ehrelay

PUBLIC = [
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
    "relative_error",
    "report_csv",
    "run_all",
    "run_sweep",
]


def test_public_names_are_pinned_and_resolve():
    assert ehrelay.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(ehrelay, name) is not None, name
