"""Tests for the benchmark harness, on configurations small enough to run in seconds.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402

# Block 1 of a one-block square system: 9 and 81 seeds, all kept at the
# native eps; at eps = 3/10 the greedy scan keeps 1 and 2.
TINY_COARSE_COUNTS = {"1": 1, "2": 2}


def _tiny_spec(seed: int):
    B = wl.q(wl.choose(wl.B_CHOICES, seed))
    return {"kind": "geometric", "n": 2, "B": B, "r": "1", "kMax": 1}, {"B": B}


TINY = wl.Workload(
    "tiny",
    _tiny_spec,
    (
        wl.estimate_step(1, 2, lambda i: None, wl.analytic_counts(1, 2)),
        wl.estimate_step(1, 2, wl.coarse_eps, wl.reference_counts("coarse_cube"),
                         command="coarse"),
    ),
)


def _refs(counts: dict) -> dict:
    return {**run.load_references(), "coarse_cube": {"counts": counts}}


def _benchmark_names(section: str) -> set[str]:
    return {m["name"] for m in run.load_benchmark()[section]}


def test_tiny_workload_passes_its_checks_at_every_seed_choice():
    for seed in range(len(wl.B_CHOICES)):
        result, record = run.run(TINY, seed, 0, False, _refs(TINY_COARSE_COUNTS),
                                 label=f"test_tiny_{seed}")
        assert result["correct"], record["commands"]
        assert result["failed"] == 0 and record["error_rate"] == 0


def test_corrupted_reference_count_shows_in_error_rate():
    corrupted = dict(TINY_COARSE_COUNTS, **{"2": TINY_COARSE_COUNTS["2"] + 1})
    result, record = run.run(TINY, 0, 0, False, _refs(corrupted), label="test_corrupted")
    coarse = [c for c in record["commands"] if c["command"] == "coarse"]
    assert coarse and all(c["errors"] for c in coarse)
    assert not result["correct"]
    assert result["failed"] == len(coarse)
    assert record["error_rate"] == pytest.approx(len(coarse) / result["attempted"])


def test_timed_metrics_are_exactly_the_end_to_end_metrics():
    result, record = run.run(TINY, 0, 0, False, _refs(TINY_COARSE_COUNTS),
                             label="test_names_timed")
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    assert all(value > 0 for value in result["metrics"].values())
    assert set(json.loads(json.dumps(result))) == {"correct", "attempted", "failed", "metrics"}
    assert "MMDIM_THREADS" in record["cleared_env"]
    for key in ("commit", "python", "click", "mpmath", "nproc", "seed", "args"):
        assert key in record


def test_traced_run_end_to_end_reports_every_per_layer_metric():
    result, record = run.run(TINY, 1, 0, True, _refs(TINY_COARSE_COUNTS),
                             label="test_names_traced")
    assert result["correct"], record["commands"]
    metrics = result["metrics"]
    assert set(metrics) == _benchmark_names("per_layer")
    assert record["detail"]["unwrapped_targets"] == []
    # two estimate steps over 9 + 81 cylinder-center seeds each
    assert metrics["estimators.seeds"] == 2 * (9 + 81)
    assert metrics["symbolic.cylinders"] == 2 * (9 + 81)
    assert metrics["mapping.orbits"] == 2 * (9 + 81)
    assert metrics["horseshoe.build_horseshoe_calls"] >= 1
    assert metrics["metrics.orbits_separate_calls"] > 0
    assert 0 < metrics["metrics.separated_share"] <= 1
    assert set(record["detail"]["per_command"]) == {"build", "estimate", "coarse"}
    trace_file = run.ROOT / record["detail"]["trace_file"]
    lines = [json.loads(line) for line in trace_file.read_text().splitlines()]
    roots = [s for s in lines if s.get("parent", 0) is None]
    assert {s["name"] for s in roots} == {"cli.build", "cli.estimate", "cli.coarse"}


def test_reference_load_rate_and_checksum_check(tmp_path):
    inputs = wl.Inputs({}, {}, tmp_path, run.load_references())
    reference = run.ReferenceLoad(inputs)
    try:
        start = time.perf_counter()
        time.sleep(0.2)
        assert reference.rate(start, time.perf_counter()) > 0
    finally:
        outcome = reference.stop()
    assert reference.proc.poll() is not None
    assert not outcome.failed, outcome.errors

    wrong = wl.Inputs({}, {}, tmp_path, {"reference_load": {"checksum": "0"}})
    reference = run.ReferenceLoad(wrong)
    outcome = reference.stop()
    assert reference.proc.poll() is not None
    assert outcome.failed and "checksum" in outcome.errors[0]


def _outcome(command: str, stdout: str = "") -> wl.Outcome:
    return wl.Outcome(command, [], 0, 0.0, None, stdout, "")


def test_verify_check_needs_both_limits_within(tmp_path):
    inputs = wl.Inputs({}, {}, tmp_path, {})
    table = ("quantity  target  estimate  |diff|  within\n"
             "liminf  0.666667  0.665005  0.00166  yes\n"
             "limsup  1  0.98848  0.0115  yes\n")
    assert wl.check_verify(_outcome("verify", table), inputs) == []
    failing = table.replace("0.0115  yes", "0.0115  NO")
    assert wl.check_verify(_outcome("verify", failing), inputs)


def test_profile_check_ignores_eps_but_not_rates(tmp_path):
    references = run.load_references()
    inputs = wl.Inputs({}, {}, tmp_path, references)
    rows = [dict(ref, eps_exact="1/2", eps_float="0.5")
            for ref in references["symbolic_two_block"]["profile"]]

    def write(rows):
        with open(inputs.out_path("profile"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    write(rows)
    assert wl.check_profile(_outcome("profile"), inputs) == []
    rows[4]["lower_ratio"] = str(float(rows[4]["lower_ratio"]) * (1 + 1e-6))
    write(rows)
    assert wl.check_profile(_outcome("profile"), inputs)


def test_thread_knob_is_cleared_from_the_child_environment(monkeypatch):
    monkeypatch.setenv("MMDIM_THREADS", "4")
    env = run.child_env()
    assert "MMDIM_THREADS" not in env
    assert env["PYTHONPATH"] == str(run.SRC)


def test_benchmark_workloads_match_the_harness():
    names = [w["name"] for w in run.load_benchmark()["workloads"]]
    assert names == list(wl.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "greedy_square", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
