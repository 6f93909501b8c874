"""Self-tests of the benchmark, on the small smoke sizes.

    python3 -m pytest bench -q

They check that every workload passes its output checks, that a corrupted
answer is caught (failed_ratio > 0), that a seed's determinism counts
repeat, that the traced run reports every per-layer metric and removes
its wrappers, and that the metric names agree with BENCHMARK.json.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

bench.import_sqstar()

import sqstar  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def smoke(capsys, name, seed=3, trace=0):
    assert bench.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                       "--smoke", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    extras = {ln.split()[0]: float(ln.split()[1]) for ln in lines
              if ln.startswith("failed_ratio ")}
    with open(os.path.join(bench.OUT, f"{name}.trace{trace}.json")) as fh:
        record = json.load(fh)
    return result, extras, record


def test_metric_names_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_fastest_pass_takes_each_call_at_its_minimum():
    assert bench.fastest_pass([[1.0, 5.0, 2.0]]) == 8.0
    assert bench.fastest_pass([[1.0, 5.0, 2.0], [2.0, 3.0, 2.5]]) == 6.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_its_checks(capsys, name):
    result, extras, record = smoke(capsys, name)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert extras["failed_ratio"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["stamp"]["src_sha256"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_determinism_counts_repeat_for_a_seed(capsys, name):
    first = smoke(capsys, name, seed=11)[2]["determinism"]
    second = smoke(capsys, name, seed=11)[2]["determinism"]
    assert first == second


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric(capsys, name):
    original = sqstar.find_witness
    result, _, record = smoke(capsys, name, trace=1)
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["ground.build_table.s"]["value"] > 0
    assert sqstar.find_witness is original and not hasattr(sqstar.find_witness, "__wrapped__")
    assert os.path.exists(os.path.join(bench.OUT, f"{name}.spans.jsonl.gz"))


def _off_by_one_threshold(real):
    def threshold(*args, **kwargs):
        n = real(*args, **kwargs)
        return None if n is None else n + 1
    return threshold


def _moved_witness(real):
    def find_witness(*args, **kwargs):
        rep = real(*args, **kwargs)
        if rep.found:
            w = rep.witness
            config = w.configuration[:-1] + (w.configuration[-1] + 1,)
            rep.witness = dataclasses.replace(w, configuration=config)
        return rep
    return find_witness


def _shifted_star_many(real):
    def star_many(*args, **kwargs):
        ranks, valid = real(*args, **kwargs)
        return ranks + 1, valid
    return star_many


def _rejecting_verify(real):
    def verify_witness(*args, **kwargs):
        return False
    return verify_witness


@pytest.mark.parametrize("name, target, corrupt", [
    ("threshold-exhaustive", "threshold", _off_by_one_threshold),
    ("search-sweep", "find_witness", _moved_witness),
    ("table-1e8", "star_many", _shifted_star_many),
    ("table-1e8", "verify_witness", _rejecting_verify),
])
def test_corrupted_answer_is_counted(capsys, monkeypatch, name, target, corrupt):
    for mod in (sqstar, sqstar.search, sqstar.semigroup):
        if hasattr(mod, target):
            monkeypatch.setattr(mod, target, corrupt(getattr(mod, target)))
    result, extras, record = smoke(capsys, name)
    assert not result["correct"] and result["failed"] > 0
    assert extras["failed_ratio"] > 0
    assert record["failures"]


def test_all_runs_every_workload_in_its_own_process():
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.ROOT, "bench", "run.py"), "--workload", "all",
         "--seed", "4", "--seconds", "0", "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == len(WORKLOADS) and all(r["correct"] for r in results)


def test_fails_without_the_program(tmp_path):
    """With only the benchmark files present, it exits non-zero, printing no result."""
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
