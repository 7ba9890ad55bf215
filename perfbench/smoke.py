"""Smoke test of the benchmark itself (about a minute on two cores).

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, seed: int = 0):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def copy_checkout(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    names = ["perfbench"] + (["src", "configs"] if with_source else [])
    for name in names:
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_layer_map_names_every_per_layer_metric_once():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [m for entry in layers for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    for entry in layers:
        assert set(entry["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    out = result(proc)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= WORKLOADS[workload].digest_reps
    assert f"digest {workload} seed=0 " in proc.stdout
    assert "reference=match" in proc.stdout
    assert "provenance " in proc.stdout
    if trace and workload == "desk-flood":
        # the flood is the decode workload: decode must carry the most self time
        self_s = {k: v["value"] for k, v in out["metrics"].items() if k.endswith(".self_s")}
        assert max(self_s, key=self_s.get) == "phys.decode.self_s"


def test_corrupted_reference_digest_is_a_failed_replication(tmp_path):
    copy_checkout(tmp_path, with_source=True)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["workloads"]["desk-flood"]["digest"] = "0" * 64
    ref_path.write_text(json.dumps(ref))
    proc = bench(tmp_path, "desk-flood", 0)
    out = result(proc)
    assert not out["correct"]
    assert out["failed"] >= WORKLOADS["desk-flood"].digest_reps
    assert "reference=mismatch" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    proc = bench(tmp_path, "desk-flood", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
