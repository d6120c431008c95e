"""The benchmark's own tests: ``python3 -m pytest perfbench``.

Each workload runs end to end at a tiny scale, in both the measured and
the traced mode, and must print exactly the metrics ``BENCHMARK.json``
declares; the checker must reject broken answers; a traced run must fail
on a missing ``op=stats`` key or a twin share off its design; seeds must
change the inputs but not the designed class shares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_answer
from run import SHARE_TOLERANCE, Run, Stats
from workloads import serve_hot_plan, serve_pool_store_plan, solve_paper_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_and_prints_the_declared_metrics(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert result["metrics"]["verified_frac"]["value"] == 1.0
        assert result["metrics"]["undegraded_frac"]["value"] == 1.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "solve-paper", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


P_REQUEST = {"times": [5, 4, 3, 3, 2, 2], "machines": 2, "request_id": "r"}
Q_REQUEST = {"times": [6, 4, 3, 2, 7], "machines": 3, "speeds": [3, 1, 2],
             "request_id": "q"}


def answer(assignment, makespan):
    return {"status": "ok", "assignment": assignment, "makespan": makespan}


def test_checker_accepts_correct_answers():
    assert check_answer(P_REQUEST, answer([[0, 4, 5], [2, 3, 1]], 10))[0]
    # Loads 10, 4, 8 at speeds 3, 1, 2: completion times 10/3, 4, 4.
    assert check_answer(Q_REQUEST, answer([[4, 2], [1], [3, 0]], 4.0))[0]
    assert check_answer(Q_REQUEST, answer([[4, 2, 0], [1], [3]], 16 / 3))[0]


def test_checker_rejects_a_corrupted_assignment():
    duplicated = answer([[0, 4, 5], [2, 3, 0]], 10)
    missing = answer([[0, 4], [2, 3, 1]], 10)
    unknown = answer([[0, 4, 5, 6], [2, 3, 1]], 10)
    wrong_rows = answer([[0, 4, 5, 2, 3, 1]], 19)
    for bad in (duplicated, missing, unknown, wrong_rows):
        assert check_answer(P_REQUEST, bad)[0] is False


def test_checker_rejects_a_misreported_makespan():
    assert check_answer(P_REQUEST, answer([[0, 4, 5], [2, 3, 1]], 9))[0] is False
    # The exact completion time is 16/3: a rounded report does not pass.
    assert check_answer(Q_REQUEST, answer([[4, 2, 0], [1], [3]], 7.0))[0] is False
    assert check_answer(Q_REQUEST, answer([[4, 2, 0], [1], [3]], 5.334))[0] is False


def test_checker_rejects_errors_and_refusals():
    assert check_answer(P_REQUEST, {"status": "rejected"})[0] is False
    assert check_answer(P_REQUEST, {"status": "error", "error": "boom"})[0] is False


def test_a_missing_stats_key_fails_and_a_missing_event_counter_reads_zero():
    stats = Stats({"counters": {}, "gauges": {}, "histograms": {}},
                  {"counters": {"requests_total": 5}, "gauges": {},
                   "histograms": {"batch_size": {"sum": 6.0, "count": 4}}})
    assert stats.delta("counters", "requests_total") == 5
    assert stats.hist("batch_size") == (6.0, 4)
    assert stats.delta("counters", "requests_shed", event=True) == 0
    with pytest.raises(RuntimeError, match="result_cache.hits"):
        stats.delta("gauges", "result_cache.hits")
    with pytest.raises(RuntimeError, match="queue_wait_seconds"):
        stats.hist("queue_wait_seconds")


def test_a_twin_share_off_its_design_fails_the_traced_run():
    plan = serve_pool_store_plan(0, 40)
    Run.check_twin_share(plan, {"service.cache.disk_hit_frac": 0.25}, pooled=True)
    off = {"service.cache.disk_hit_frac": 0.25 - 2 * SHARE_TOLERANCE}
    with pytest.raises(RuntimeError, match="disk_hit_frac"):
        Run.check_twin_share(plan, off, pooled=True)


@pytest.mark.parametrize("make", [
    lambda seed: solve_paper_plan(seed, 2),
    lambda seed: serve_hot_plan(seed, 200, hot_size=50),
    lambda seed: serve_pool_store_plan(seed, 200),
])
def test_seeds_change_inputs_but_not_class_shares(make):
    one, two = make(1), make(2)
    assert one.fingerprint() != two.fingerprint()
    assert one.realised_shares() == two.realised_shares()
    assert make(1).fingerprint() == one.fingerprint()
    keys = [op.key() for op in one.prelude] + [
        op.key() for op in one.timed if op.klass != "twin"]
    assert len(keys) == len(set(keys)), "warm-up and fresh inputs must be distinct"
