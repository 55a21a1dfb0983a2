"""The package's public surface: exactly the user-facing names, and what
importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

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
    "report_csv",
    "run_all",
    "run_sweep",
]


def test_public_names_are_pinned_and_resolve():
    assert ehrelay.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(ehrelay, name) is not None, name


def test_import_leaves_the_scipy_solvers_to_the_oracle():
    """Only criterion 9's independent oracle uses scipy's quad and brentq, so
    neither an import nor the CLI pays for loading them."""
    script = (
        "import sys\n"
        "solvers = ('scipy.optimize', 'scipy.integrate')\n"
        "import ehrelay\n"
        "print([m in sys.modules for m in solvers])\n"
        "import ehrelay.cli\n"
        "print([m in sys.modules for m in solvers])\n"
        "from ehrelay.validation import criterion_case4_oracle\n"
        "assert criterion_case4_oracle().passed\n"
        "print([m in sys.modules for m in solvers])\n"
    )
    src = str(Path(ehrelay.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=300, env=env)
    assert run.stdout.splitlines() == ["[False, False]", "[False, False]",
                                       "[True, True]"]
