"""Self-test of the benchmark harness at tiny op sizes.

    python -m pytest -q benchmarks/test_run.py

It checks the harness, not pktilt's speed: every declared metric comes out
with its declared unit, op lists depend on the seed alone, a traced run
replays exactly the ops of its untraced pass, and the harness refuses to
run without pktilt's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_harness(cwd: Path, results: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", "--results-dir", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc = run_harness(ROOT, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]

    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name

    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["result"] == result
    assert record["held_out_seed"] != record["seed"]
    assert {"nproc", "python", "numpy", "git_sha", "git_dirty"} <= set(record["provenance"])
    assert record["ops_attempted"] == result["attempted"]
    if trace:
        assert record["traced_ops"] == record["untraced_ops"]
        assert [o["outcome"] for o in record["ops"]] == record["untraced_outcomes"]
        assert record["untraced_entry_points"] == []
        assert (tmp_path / record["spans_file"]).exists()
    probes = wl.DEFECT_PROBES.get(workload, [])
    assert [d["argv"] for d in record["known_defects"]] == [p["argv"] for p in probes]


@pytest.mark.parametrize("seed", [5, 6])
def test_cli_mix_holds_no_known_defect_request(seed):
    known = {tuple(argv) for argv in wl.KNOWN_DEFECTS}
    assert not any(tuple(op["argv"]) in known for op in wl.gen_cli_queries(seed, wl.FULL))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_depends_on_the_seed_alone(workload):
    gen = wl.WORKLOADS[workload][0]
    ops = gen(5, wl.TINY)
    assert ops == gen(5, wl.TINY)
    assert ops != gen(6, wl.TINY)
    assert json.loads(json.dumps(ops)) == ops  # specs are plain data


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_harness(tmp_path, tmp_path / "results", WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
