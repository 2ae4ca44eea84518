"""CI's larger-budget step selects every Hypothesis property by the marker
Hypothesis's pytest plugin puts on each ``@given`` test, so a property in a
new file is not left at the default budget."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Hypothesis properties at a larger example budget"


def test_larger_budget_step_runs_every_property():
    steps = re.split(r"\n\s*- name: ", WORKFLOW.read_text(encoding="utf-8"))
    [step] = [step for step in steps if step.startswith(STEP + "\n")]
    [command] = [line for line in step.splitlines() if "pytest" in line]
    arguments = command.split("python -m pytest", 1)[1].split()
    assert "tests" in arguments
    assert arguments[arguments.index("-m") + 1] == "hypothesis"
    assert arguments[arguments.index("--hypothesis-profile") + 1] == "ci"
    assert not re.search(r"\btests/\w+\.py\b", step)
