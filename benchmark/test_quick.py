"""The benchmark's own test: one quick round of every workload, untraced and
traced, checked for a parsable result line, the expected op counts, checks
that ran and passed, and call counts that repeat.

    python3 -m pytest benchmark/test_quick.py
"""

import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# workload -> (ops attempted, ops failed, checks that must have run) in a quick round
EXPECTED = {
    "chsh_search": (2, 0, {
        "search.full.rows_sum_to_one", "search.full.fast_matches_exact",
        "search.full.p_win_from_tables", "search.quantum.feasible",
        "search.quantum.matches_bell_state", "search.quantum.tsirelson_bound"}),
    "chsh_exact": (2, 0, {
        "exact.rows_sum_to_one", "exact.fast_matches_exact", "exact.swap_invariant",
        "exact.rotation.matches_bell_state", "exact.rotation.tsirelson_bound"}),
    "graded_identities": (5, 1, {
        "graded.pairing_identity.order2", "graded.pairing_identity.order4",
        "graded.pairing_identity.order6", "graded.transition_closed_form"}),
}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@cache
def quick(workload, trace, repeat=0):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / f"{workload}-seed7-trace{trace}-quick.json").read_text())
    return result, details


@pytest.mark.parametrize("workload", sorted(EXPECTED))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_round(workload, trace):
    result, details = quick(workload, trace)
    attempted, failed, must_run = EXPECTED[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (attempted, failed)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert must_run <= set(details["checks"])
    assert all(passed > 0 and not bad for passed, bad in details["checks"].values())
    if workload == "graded_identities":
        assert details["op_outcomes"] == {"graded.small_norm_is_one": [0, 1]}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_outputs_and_counts_repeat(workload):
    _, untraced = quick(workload, 0)
    first, traced = quick(workload, 1)
    assert traced["round_digests"] == untraced["round_digests"]
    second, _ = quick(workload, 1, repeat=1)
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("chsh_exact", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_survives_a_renamed_target(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    chsh = tmp_path / "src" / "superqubit" / "chsh.py"
    chsh.write_text(chsh.read_text().replace("_fast_tables(", "_kernel_tables("))
    proc = run("chsh_exact", 1, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    gone = {m["name"] for m in SPEC["per_layer"]} - set(metrics)
    assert gone == {"chsh.fast_tables.calls", "chsh.fast_tables.self_s",
                    "chsh.fast_tables.us_per_call", "chsh.evals_per_restart"}
    assert "absent: chsh.fast_tables.calls" in proc.stderr
