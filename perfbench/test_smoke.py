"""The benchmark's own smoke test.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, traced and untraced, and checks the
result line against BENCHMARK.json: exact keys, metric names and units.
It also checks that the output checks reject wrong answers and that the
benchmark refuses to run without the package. Takes about two minutes.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in run.WORKLOADS if w != "family-scan"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "op_cost.iqm"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert out["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
        for m in spec:  # printed by name with its unit, too
            assert f"{workload}: {m['name']} = " in proc.stdout


def test_reference_sampler_stops_its_process():
    import time

    import probe
    cores = os.sched_getaffinity(0)
    with probe.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert sampler.samples and all(c > 0 for _, _, c in sampler.samples)
    start, end, _ = sampler.samples[0]
    assert sampler.cpu_at(start, end) == sampler.samples[0][2]
    assert sampler.cpu_at(end + 1e3, end + 2e3) == sampler.mean_cpu()
    assert sampler._proc.poll() is not None
    assert os.sched_getaffinity(0) == cores


def test_iqm_keeps_the_middle_half():
    import worker
    assert worker.iqm([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert worker.iqm([5.0]) == 5.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "family-scan", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_wrong_answers(monkeypatch):
    import workloads
    from parisi_zero import classify

    tally = workloads.Tally()
    cl = classify(4, 38, 0.3)  # OneRSB, far from every boundary
    tally.classification(cl, "OneRSB", 0.3)
    with pytest.raises(workloads.CheckFailed):
        tally.classification(cl, "TwoRSB", 0.3)
    tally.classification(cl, "TwoRSB", 1e-6)  # near a boundary: counted only
    assert tally.disagree == 2
    monkeypatch.setitem(workloads.FROZEN, (2, 4),
                        {"lambda_1to1F": 0.5607071822166656 + 2e-9})
    with pytest.raises(workloads.CheckFailed):
        workloads.check_frozen()
