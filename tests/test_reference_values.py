"""Every frozen reference literal in tests/ equals what its script prints.

The literals are read from the test sources, not imported, and compared
exactly against scripts/compute_reference_values.py, which recomputes them
without importing the package.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compute_reference_values.py"

# Simulator output and the settings it was recorded at; the script does not
# import the package, so it cannot reproduce these.
NOT_FROM_SCRIPT = {"REF_SEED", "REF_TRIALS", "REF_HITS_DEFAULT",
                   "REF_HITS_GATED", "REF_HITS_ENERGY"}

# Printed key of each literal whose name does not give it (REF_Z_A -> z_a);
# a dict literal formats each of its keys into the printed one.
PRINTED_KEYS = {
    "REF_OUTAGE_DYNAMIC": "outage_dynamic_ps",
    "REF_OUTAGE_IMPROVED": "improved_outage_exact(P=30 dBm)",
    "REF_IMPROVED": "improved_outage_exact(P={:g} dBm)",
    "REF_DYNAMIC_EXACT": "dynamic_outage_exact(theta={!r})",
    "REF_GEOMETRY": "{}",
    "REF_CDF_T2": "cdf_t2({!r})",
    "REF_CDF_T3": "cdf_t3({!r})",
    "K1_REFERENCE": "k1({!r})",
}


def _literals():
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            if ((name.startswith("REF_") or name == "K1_REFERENCE")
                    and name not in NOT_FROM_SCRIPT):
                yield pytest.param(name, ast.literal_eval(node.value),
                                   id=f"{path.stem}.{name}")


@pytest.fixture(scope="module")
def printed():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=True, timeout=300)
    values = {}
    for line in run.stdout.splitlines():
        parts = line.split(" = ")
        if len(parts) >= 2 and not line.startswith("=="):
            # "q1 = boundary_b(x1) = 1.66e-07": the name first, the value last.
            values[parts[0]] = float(parts[-1])
    return values


@pytest.mark.parametrize("name,literal", _literals())
def test_literal_equals_script_output(name, literal, printed):
    key = PRINTED_KEYS.get(name, name.removeprefix("REF_").lower())
    pairs = ([(key.format(k), v) for k, v in literal.items()]
             if isinstance(literal, dict) else [(key, literal)])
    for printed_key, value in pairs:
        assert printed_key in printed, f"{name}: the script prints no {printed_key!r}"
        assert printed[printed_key] == value, (name, printed_key)
