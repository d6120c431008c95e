"""End-to-end integration tests: public API, examples, and doctests."""

from __future__ import annotations

import doctest
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

DOCTEST_MODULES = [
    "repro",
    "repro.model.instance",
    "repro.model.schedule",
    "repro.core.dp",
    "repro.core.configurations",
    "repro.core.ptas",
    "repro.algorithms.list_scheduling",
    "repro.algorithms.lpt",
    "repro.algorithms.multifit",
    "repro.exact.brute",
    "repro.exact.branch_and_bound",
    "repro.exact.ilp",
    "repro.workloads.generator",
    "repro.parallel.runs",
    "repro.experiments.reporting",
]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_end_to_end_workflow(self):
        """The README workflow, executed."""
        inst = repro.make_instance("u_100", m=4, n=16, seed=5)
        result = repro.parallel_ptas(inst, eps=0.3, num_workers=4)
        exact = repro.solve_exact(inst, "bnb")
        assert exact.optimal
        assert exact.makespan <= result.makespan <= 1.3 * exact.makespan
        assert result.schedule.is_valid()
        assert repro.lpt(inst).is_valid()
        assert repro.list_scheduling(inst).is_valid()
        assert repro.multifit(inst).is_valid()

    def test_schedule_roundtrips_through_public_types(self):
        inst = repro.Instance([5, 4, 3], num_machines=2)
        sched = repro.Schedule(inst, [[0], [1, 2]])
        assert sched.makespan == 7


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module)
    assert result.failed == 0, (
        f"{result.failed} doctest failure(s) in {module_name}"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "cluster_scheduling.py", "epsilon_tradeoff.py",
     "speedup_study.py", "adversarial_lpt.py", "campaign_analysis.py"],
)
def test_examples_run(script):
    """Every example script executes cleanly."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), f"{script} produced no output"
