"""The CI workflow is one GitHub accepts: every step runs one thing, under its own name."""

import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tests.yml")


def test_every_workflow_step_has_one_action_and_a_unique_name():
    # a step with neither run nor uses makes GitHub reject the whole workflow
    with open(WORKFLOW, encoding="utf-8") as fh:
        jobs = yaml.safe_load(fh)["jobs"]
    for job in jobs.values():
        for step in job["steps"]:
            assert len({"run", "uses"} & set(step)) == 1, step
        names = [step["name"] for step in job["steps"] if "name" in step]
        assert len(names) == len(set(names)), names
