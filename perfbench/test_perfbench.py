"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from gpcodes import cli, epc, files, fields, gpc, linalg, oracle  # noqa: E402
from reference import Meter  # noqa: E402
from tracer import LayerTracer  # noqa: E402

TINY_S = 0.2


def worker(mode: str, workload: str, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, "--workload",
         workload, "--seed", str(seed), "--seconds", str(TINY_S)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_the_gate(workload):
    out = worker("baseline", workload)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert out["gpc_op_s"] and out["epc_op_s"]


def test_corrupted_repair_raises_failed_ratio(monkeypatch):
    codes = workloads.build_storage()
    inputs = workloads.archive_inputs(codes, seed=1, seconds=0.05)
    decode = gpc.decode_iterative

    def corrupting(arr, params):
        out = decode(arr, params)
        out.values[0][0] ^= 1
        return out

    monkeypatch.setattr(gpc, "decode_iterative", corrupting)
    res = workloads.run_archive(codes, inputs, LayerTracer(), Meter())
    assert res.failed == len(inputs["g_data"]) > 0
    assert res.failed / res.attempted > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (worker("traced", workload, seed=7)["trace"]
                     for _ in range(2))
    for trace in (first, second):
        assert trace["calls"][workloads.WORKLOADS[workload].must_call] > 0
    keys = ("fields.GF.mul", "linalg.solve")
    assert [first["calls"][k] for k in keys] == [second["calls"][k] for k in keys]
    assert first["subsets_examined"] == second["subsets_examined"]
    assert (first["triangulation_cache_entries"]
            == second["triangulation_cache_entries"])


def test_tracer_rebinds_every_import_site_and_restores():
    originals = {
        (linalg, "solve"): linalg.solve, (gpc, "solve"): gpc.solve,
        (epc, "solve"): epc.solve, (oracle, "solve"): oracle.solve,
        (oracle, "rank"): oracle.rank, (cli, "rank"): cli.rank,
        (files, "build_h2"): files.build_h2,
        (fields.GF, "mul"): fields.GF.mul,
    }
    tracer = LayerTracer()
    with tracer:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, (owner, attr)
        code = epc.build_h2(3, 3)
        assert oracle.correctable([0, 1], code.check_matrix)
        with tracer.paused():
            oracle.correctable([0, 4], code.check_matrix)
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)
    assert tracer.calls["epc.build_h2"] == 1
    assert tracer.calls["oracle.correctable"] == 1
    assert tracer.calls["linalg.rank"] == 1
    assert tracer.calls["fields.GF.mul"] > 0
    assert tracer.self_s["oracle.correctable"] > 0


def test_result_line_has_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = subprocess.run(
            [*bench["command"], "--workload", "archive", "--seed", "3",
             "--seconds", str(TINY_S), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in listed} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        report = json.loads(proc.stdout.splitlines()[-2])["report"]
        assert report["seed"] == 3 and report["provenance"]["python"]


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*bench["command"], "--workload", "archive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
