import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import layers, measure
from bench.workloads import WORKLOADS, OracleError

BENCH_DIR = Path(measure.__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reproduces_the_untraced_model(name):
    # Every attempt's model must equal the first one's, so a traced run
    # that changed a digest, the makespan or chaos.ok counts as failed.
    detail, result = measure.measure(name, seed=1, seconds=0, trace=True, smoke=True)
    assert detail["failed"] == 0, detail["errors"]
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert set(metrics) == set(layers.METRICS)
    shares = sum(v["value"] for key, v in metrics.items() if key.endswith(".self_pct"))
    assert shares == pytest.approx(100.0)


@pytest.mark.parametrize("name", ["smp_decode", "traffic_10k", "chaos_recover"])
def test_seed_alone_determines_the_model(name):
    wl = WORKLOADS[name]

    def model(seed):
        return wl.run(wl.build(wl.inputs(seed, True))).model

    first = model(1)
    assert model(1) == first
    assert model(7) != first


def test_failed_oracle_is_counted_and_the_set_goes_on(monkeypatch):
    wl = WORKLOADS["smp_decode"]
    monkeypatch.setattr(wl, "size", wl.smoke_size)
    real_check = wl.check
    calls = []

    def check_broken_once(oracle, outcome):
        calls.append(outcome)
        if len(calls) == 1:
            raise OracleError("broken on purpose")
        real_check(oracle, outcome)

    monkeypatch.setattr(wl, "check", check_broken_once)
    detail, result = measure.measure("smp_decode", seed=1, seconds=0, trace=False, smoke=False)
    assert result["attempted"] == measure.MIN_ITERATIONS
    assert result["failed"] == 1 and result["correct"] is False
    assert detail["reported"]["fail_ratio"]["value"] == pytest.approx(1 / measure.MIN_ITERATIONS)
    assert detail["metrics"]["run_s"]["n"] == measure.MIN_ITERATIONS - 1
    assert "broken on purpose" in detail["errors"][0]


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smp_decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
