"""Tests of the benchmark harness itself: seeded inputs, repeatable counters,
and every declared metric emitted with its unit.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import tail  # noqa: E402
from workloads import FULL, INPUTS  # noqa: E402

SEED_COUNTERS = {
    "modp": ("modp_basis.window_hi.direct1", "modp_basis.window_hi.direct2",
             "modp_basis.window_hi.pairs", "modp_basis.max_index_digits.direct1",
             "modp_basis.max_index_digits.direct2", "modp_basis.max_index_digits.pairs"),
    "integer": ("waring_int.terms", "waring_int.finisher_terms", "waring_int.max_index"),
}


def run_tiny(capsys, workload, seed, trace):
    code = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                       "--trace", str(trace), "--sizes", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_one_seed_gives_identical_inputs(workload):
    make = INPUTS[workload]
    assert make(7, FULL) == make(7, FULL)
    assert make(7, FULL) != make(8, FULL)


@pytest.mark.parametrize("workload", sorted(SEED_COUNTERS))
def test_one_seed_gives_identical_counts(capsys, workload):
    runs = [run_tiny(capsys, workload, 5, trace=1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"], result
    first, second = (r["metrics"] for _, r in runs)
    for name in SEED_COUNTERS[workload]:
        assert first[name]["value"] > 0
        assert first[name] == second[name], name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_smoke_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, result = run_tiny(capsys, workload, 3, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        spans_file = bench.ROOT / ".perfbench" / f"spans-{workload}-3.json"
        spans = json.loads(spans_file.read_text())["spans"]
        assert spans and all(s["self_s"] <= s["end"] - s["start"] + 1e-9 for s in spans)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_frozen_copy_matches_its_pinned_digest():
    assert bench.source_digest(bench.SEED_LIB / bench.SEED_PACKAGE) == bench.SEED_SRC_SHA256


def test_paired_round_alternates_which_library_goes_first():
    order = []

    class Fake:
        def __init__(self, side):
            self.side = side

        def round(self, stats):
            for step in range(4):
                order.append((step, self.side))
                stats.lap()
                yield

    bench.paired_round(Fake("live"), Fake("seed"), 1)
    firsts = [side for i, (step, side) in enumerate(order) if i % 2 == 0]
    assert firsts == ["seed", "live", "seed", "live"]
    assert sorted(order) == sorted((s, side) for s in range(4) for side in ("live", "seed"))


def test_tail_leaves_ten_samples_beyond():
    value, percentile, count = tail(range(1000))
    assert (value, percentile, count) == (989, 99.0, 1000)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)
