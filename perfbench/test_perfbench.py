"""The benchmark's own test.

Runs every workload briefly on two seeds and checks that the gates pass,
that one seed reproduces identical counts and check results, that the
traced run's wrappers reach every binding site, and that the result
lines match ``BENCHMARK.json``.  Run from the repository root:

    python3 -m pytest perfbench -q
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: units per test run; C3's gate keeps its 0.02 margin only from about
#: 100 units (5000 Cliffords per n) on, the other gates hold from a few
UNITS = {"collide-n10": 20, "clifford-support": 120, "tomography-d4": 6, "nets-cover": 10}


def _run(cwd: Path, *args: str):
    got = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         capture_output=True, text=True, cwd=cwd, timeout=300)
    return got.returncode, got.stdout.strip().splitlines()


def _measure(workload: str, seed: int, trace: int):
    code, lines = _run(ROOT, "--workload", workload, "--seed", str(seed),
                       "--trace", str(trace), "--units", str(UNITS[workload]))
    assert code == 0, lines[-2:]
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert result["correct"] and report["gate_ok"] and result["failed"] == 0, report
    assert result["attempted"] == UNITS[workload]
    return report, result


def _counts(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.endswith("self_s") and not k.startswith("trace.")}


@pytest.mark.parametrize("workload", run.NAMES)
def test_gates_pass_on_two_seeds_and_a_seed_reproduces(workload):
    report_a, result_a = _measure(workload, 1, trace=1)
    report_b, result_b = _measure(workload, 1, trace=1)
    assert report_a["count_mismatches"] == []
    assert _counts(result_a) == _counts(result_b)
    assert report_a["checks_sha1"] == report_b["checks_sha1"]
    assert report_a["gate"] == report_b["gate"]
    assert list(result_a["metrics"]) == [m["name"] for m in BENCH["per_layer"]]

    report_c, result_c = _measure(workload, 2, trace=0)
    assert list(result_c["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v["value"] > 0 for v in result_c["metrics"].values())
    assert len(report_c["setup_samples_s"]) == len(report_c["setup_ref_s"]) == run.SETUP_REPEATS
    assert list(report_c["unscaled"]) == [n for n, _ in run.END_TO_END if n != "peak_rss_mb"]


def test_tracer_patches_every_binding_site():
    import numpy as np

    import prulab.distinguisher as dist
    import prulab.ensembles as ens
    import prulab.nets as nets
    import prulab.tomography as tomo

    sites = [(dist, "sample_pfc"), (dist, "measurement_support"), (dist, "sample_from_support"),
             (ens, "random_clifford_rng"), (nets, "diamond_distance_batch"), (nets, "haar_unitary_rng"),
             (ens.PolyaUrnSampler, "draw"), (dist.HaarUrnOracle, "draw"), (dist.PFCOracle, "draw"),
             (tomo.ChannelOracle, "apply"), (np.linalg, "qr"), (np.linalg, "eigh"), (np.linalg, "svd")]
    before = [vars(owner)[key] for owner, key in sites]
    tracer = layertrace.Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        for (owner, key), original in zip(sites, before):
            assert vars(owner)[key].__wrapped__ is original, (owner, key)
    finally:
        tracer.uninstall()
    assert [vars(owner)[key] for owner, key in sites] == before


def test_nested_calls_of_one_layer_count_once():
    from prulab.linalg import RandomSeed, haar_unitary

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.run_unit(0, lambda s: haar_unitary(3, s), RandomSeed(5))
    finally:
        tracer.uninstall()
    stats = tracer.per_unit()[0]
    assert stats["linalg.haar_unitary.calls"] == 1
    assert stats["numpy.linalg.qr.calls"] == 1
    assert stats[f"{layertrace.UNIT}.self_s"] + stats["linalg.haar_unitary.dur_s"] == pytest.approx(
        stats[f"{layertrace.UNIT}.dur_s"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE / "spec.json").read_text())
    assert [w["name"] for w in BENCH["workloads"]] == list(run.NAMES) == list(spec["workloads"])
    assert list(workloads.WORKLOADS) == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layertrace.layer_metrics()


def test_fails_without_printing_in_a_bare_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    for workload in (None, "collide-n10"):
        args = ["--seed", "1", "--seconds", "1", "--trace", "0"]
        code, lines = _run(tmp_path, *args, *(["--workload", workload] if workload else []))
        assert code != 0 and lines == []
