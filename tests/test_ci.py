"""CI's larger-budget step runs exactly the test files that hold a Hypothesis
property, so a new property file is not left at the default budget."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Hypothesis properties at a larger example budget"
PROPERTY = re.compile(r"^\s*@given\(", re.M)


def test_larger_budget_step_lists_every_property_file():
    steps = re.split(r"\n\s*- name: ", WORKFLOW.read_text(encoding="utf-8"))
    [step] = [step for step in steps if step.startswith(STEP + "\n")]
    listed = re.findall(r"\btests/\w+\.py\b", step)
    with_properties = {
        path.relative_to(ROOT).as_posix() for path in (ROOT / "tests").glob("*.py")
        if PROPERTY.search(path.read_text(encoding="utf-8"))
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == with_properties
    assert "--hypothesis-profile ci" in step
