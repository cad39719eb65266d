"""Smoke tests of the benchmark, each workload at its tiny size.

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own test run (``tests/``) does not collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from charpoly.characters import CycleType, character_recpart  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_without_failures(workload, trace, section):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "verify", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_reproduces_the_committed_lists(workload):
    committed = json.loads((ROOT / "perfbench" / "requests" / f"{workload}.json").read_text())
    assert workloads.requests(workload) == committed
    assert workloads.requests(workload, seed=7) == workloads.requests(workload, seed=7)


def test_seeds_vary_the_drawn_inputs():
    for workload in ("expand", "char"):
        lists = {json.dumps(workloads.requests(workload, seed)) for seed in range(5)}
        assert len(lists) > 1


def test_checks_reject_wrong_outputs():
    char = ["char", "--mu", "4,3,3", "--ct", "2" + ",1" * 8]
    right = str(character_recpart((3, 3), CycleType((2,) + (1,) * 8)))
    assert checks.check(char, 0, right) is None
    assert checks.check(char, 0, str(int(right) + 1))
    assert checks.check(char, 1, right)

    expand = ["expand", "--lambda", "3,3", "--r", "2", "--format", "json"]
    good = '{"lambda":[3,3],"r":2,"k":6,"shift":2,"b":[5,5,3,1,0,0,0]}'
    assert checks.check(expand, 0, good) is None
    assert checks.check(expand, 0, good.replace("[5,5,3,1", "[5,5,3,2"))
    assert checks.check(expand, 0, "not json")

    table = ["table", "--lambda", "3,3", "--r-list", "2,3,4,5", "--format", "latex"]
    golden = (ROOT / "golden" / "table_33.tex").read_text()
    assert checks.check(table, 0, golden) is None
    assert checks.check(table, 0, golden.replace("+3\\binom{n-2}{4}", "+4\\binom{n-2}{4}"))

    verify = ["verify", "--max-k", "4", "--max-r", "3", "--n-window", "2", "--jobs", "1"]
    report = checks.reference_report(verify)
    assert checks.check(verify, 0, report + "# elapsed: 1.00s\n") is None
    assert checks.check(verify, 0, report.replace("PASS 29/29", "FAIL 28/29"))


def test_every_layer_metric_says_what_it_should_move():
    described = json.loads((ROOT / "perfbench" / "meta.json").read_text())["layer_metrics"]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.startswith("verification.suite_s."):
            name = "verification.suite_s.<suite>"
        assert name in described, name
