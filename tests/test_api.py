"""The package's public surface: exactly the user-facing names, and what
importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh(script: str) -> list:
    """The stdout lines of script, run in a fresh interpreter on this ehrelay."""
    src = str(Path(ehrelay.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=300, env=env)
    return run.stdout.splitlines()


# Prints the loaded ehrelay submodules and scipy modules, sorted.
_LOADED = ("print(sorted(m for m in sys.modules if m.startswith('ehrelay.')"
           " or m.partition('.')[0] == 'scipy'))\n")


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
    assert _fresh(script) == ["[False, False]", "[False, False]", "[True, True]"]


def test_import_loads_no_submodule_and_no_scipy():
    """Each public name loads its module when first read, so importing the
    package loads none; dir() still lists every public name."""
    script = ("import sys\n"
              "import ehrelay\n" + _LOADED +
              "print(set(ehrelay.__all__) <= set(dir(ehrelay)))\n" + _LOADED)
    assert _fresh(script) == ["[]", "True", "[]"]


def test_a_public_name_loads_only_its_layers():
    script = ("import sys\n"
              "from ehrelay import outage_improved\n" + _LOADED)
    assert _fresh(script) == [str(["ehrelay.model", "ehrelay.numerics", "ehrelay.outage"])]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'ehrelay' has no attribute 'no_such_name'"):
        ehrelay.no_such_name


def test_star_import_binds_every_public_name():
    script = ("from ehrelay import *\n"
              "import ehrelay\n"
              "print(sorted(n for n in ehrelay.__all__"
              " if globals().get(n) is getattr(ehrelay, n)))\n")
    assert _fresh(script) == [str(sorted(PUBLIC))]


def test_the_simulator_dynamic_form_gate_and_cli_params_load_no_scipy():
    """Only the improved form's K1, criterion 8 and criterion 9's oracle need
    scipy, and each imports it when it runs."""
    script = (
        "import sys\n"
        "from ehrelay import McConfig, SystemParams, mc_outage, outage_dynamic_ps\n"
        "outage_dynamic_ps(SystemParams(), 0.5)\n"
        "mc_outage(SystemParams(), 'static_equal', {}, McConfig(trials=4096, seed=1))\n"
        "import ehrelay.validation, ehrelay.cli\n"
        "assert ehrelay.cli.main(['params']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert _fresh(script)[-1] == "[]"


def test_bessel_k1_binds_to_cython_k1_on_the_first_improved_call():
    script = (
        "from ehrelay import SystemParams, numerics, outage_improved\n"
        "print('bessel_k1' in vars(numerics))\n"
        "outage_improved(SystemParams())\n"
        "from scipy.special import cython_special\n"
        "print(vars(numerics)['bessel_k1'] is cython_special.k1)\n"
    )
    assert _fresh(script) == ["False", "True"]
