"""scripts/ci.sh holds the check steps that .github/workflows/tests.yml runs."""

import pathlib
import re
import subprocess

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ci.sh"


def _script_steps():
    """The steps a run of the script with no argument executes, in order,
    as its usage message lists them."""
    run = subprocess.run(["bash", str(SCRIPT), "no-such-step"], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 2
    usage = re.fullmatch(r"usage: scripts/ci\.sh \[STEP\], STEP one of: (.+)\n", run.stderr)
    return usage.group(1).split()


def test_the_workflow_runs_each_step_of_the_script_once_in_its_order():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = _script_steps()
    assert re.findall(r"^ +run: scripts/ci\.sh (\S+)$", workflow, re.M) == steps
    script = SCRIPT.read_text()
    assert [s for s in steps if not re.search(rf"^{s}\(\) {{$", script, re.M)] == []
