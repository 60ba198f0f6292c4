"""The benchmark's own tests: a tiny-size smoke of every workload in
both modes, injected corruption caught, the contract file in step.

Run from the repository root::

    python3 -m pytest wallbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

WORKLOADS = ["blcr_dump", "llm_delta", "sim_testbed"]


@pytest.fixture
def smoke(monkeypatch):
    """Run from the repository root at the tiny SMOKE sizes."""
    monkeypatch.chdir(ROOT)
    loads, _ = run.load_modules()
    monkeypatch.setattr(loads, "FULL", loads.SMOKE)
    return loads


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(smoke, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in specs}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result
        with open(os.path.join(run.OUT_DIR, f"{workload}-seed3-trace0.json")) as f:
            advisory = json.load(f)["advisory"]
        assert {k: v["unit"] for k, v in advisory.items()} == dict(run.ADVISORY)
        assert all(v["value"] > 0 for v in advisory.values()), advisory
    else:
        assert os.path.getsize(
            os.path.join(run.OUT_DIR, f"{workload}-seed3-trace1.spans.jsonl")) > 0


def test_flipped_byte_in_a_dumped_image_fails_the_run(smoke, capsys, monkeypatch):
    dump = smoke.BlcrDump.dump

    def corrupting(self, rank, image, tracer):
        out = dump(self, rank, image, tracer)
        with open(os.path.join(self.dir, self.path(rank)[1:]), "r+b") as f:
            f.seek(len(image) // 3)
            byte = f.read(1)
            f.seek(len(image) // 3)
            f.write(bytes([byte[0] ^ 0xFF]))
        return out

    monkeypatch.setattr(smoke.BlcrDump, "dump", corrupting)
    code = run.main(["--workload", "blcr_dump", "--seed", "3", "--seconds", "0.3"])
    result = last_json(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_simulator_drift_from_recorded_value_fails_the_run(smoke, capsys, monkeypatch):
    monkeypatch.setattr(smoke, "FULL", smoke.Scale(
        **{**vars(smoke.SMOKE), "sim_reference": smoke.SMOKE.sim_reference * 1.001}))
    code = run.main(["--workload", "sim_testbed", "--seed", "3", "--seconds", "0.1"])
    result = last_json(capsys)
    assert code != 0 and result["failed"] == 1


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "blcr_dump", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_contract_file_matches_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
