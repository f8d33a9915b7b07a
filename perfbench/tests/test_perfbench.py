"""Tests of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench/tests

They run every workload in smoke mode, check that each metric named in
BENCHMARK.json is printed with its unit, and check that the oracle flags
deliberately corrupted reports.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import speed  # noqa: E402

import addobs_certify as pkg  # noqa: E402
from addobs_certify import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    elif workload == "small-batch":
        assert result["metrics"]["count.rejected"]["value"] == 2  # one cycle of the mix


def test_each_call_is_divided_by_the_slowdown_while_it_ran():
    monitor = speed.Monitor(samples=[(0.0, 1.0), (10.0, 4.0), (20.0, 4.0)])
    out = {"untraced": {"latencies": [2.0, 8.0], "starts": [-1.0, 9.0], "indices": [0, 1]}, "peak_rss_mb": 10.0}
    values, info = run.end_to_end(out, [{"setup_s": 0.5, "start": 19.5}], monitor)
    assert values == pytest.approx({"setup_s": 0.125, "docs_per_s": 0.5, "latency_p50_s": 2.0,
                                    "latency_tail_s": 2.0, "peak_rss_mb": 10.0})
    assert info["wall_metrics"]["latency_p50_s"] == 5.0


def test_monitor_slowdown_is_the_harmonic_mean_over_its_window():
    monitor = speed.Monitor(samples=[(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)])
    assert monitor.slowdown(0.5, 2.5) == pytest.approx(2 / (1 / 2 + 1 / 4))
    assert monitor.slowdown() == pytest.approx(3 / (1 + 1 / 2 + 1 / 4))
    assert monitor.slowdown(0.9, 1.0) == 2.0  # widened to MIN_WINDOW_S about its middle
    assert monitor.slowdown(5.0, 6.0) == 4.0  # no sample inside: the nearest


@pytest.mark.parametrize("kernels", sorted({k for ks in run.KERNELS.values() for k in ks}))
def test_monitor_samples_until_it_is_left(kernels):
    with speed.Monitor([kernels]) as monitor:
        time.sleep(0.35)
    times = [t for t, _r in monitor.samples]
    assert len(times) >= 2 and times == sorted(times)
    assert all(r > 0 for _t, r in monitor.samples)
    assert monitor._proc.returncode == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "small-batch", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generators_are_seeded():
    a = corpus.chain_sector_diagonal(3, 0, 3)
    b = corpus.chain_sector_diagonal(3, 0, 3)
    c = corpus.chain_sector_diagonal(4, 0, 3)
    assert (a["core"] == b["core"]).all()
    assert a["core"].shape != c["core"].shape or not (a["core"] == c["core"]).all()
    for i in range(len(corpus.SMALL_BATCH_CYCLE)):  # labels fixed, states seeded
        x, y = corpus.small_system(5, i), corpus.small_system(6, i)
        assert np.array_equal(x["ja"], y["ja"]) and np.array_equal(x["jb"], y["jb"]) and x["jt"] == y["jt"]
        assert x["kind"] == "higgs" or not np.array_equal(x["core"], y["core"])
    kinds = [corpus.small_system(5, i)["kind"] for i in range(len(corpus.SMALL_BATCH_CYCLE))]
    assert kinds == [kind for kind, _da, _db in corpus.SMALL_BATCH_CYCLE]
    assert kinds.count("noisy") * 10 == len(kinds)


def test_chain_5x5_counts():
    system = corpus.chain_full_support(1, 0, 5)
    mat = corpus.dense(system)
    assert mat.shape == (1024, 1024)
    assert int((mat != 0).sum()) == 63504
    positions, _values, _fmax = oracle._anchors(mat, np.asarray(system["ja"]), np.asarray(system["jb"]))
    assert len(positions) == 501


def _pristine_reports():
    """(system, expected, correct report) for every kind of system."""
    systems = [corpus.small_system(2, i) for i in range(len(corpus.SMALL_BATCH_CYCLE))]
    systems += [corpus.chain_full_support(2, 0, 3), corpus.chain_sector_diagonal(2, 0, 3)]
    out = []
    for sy in systems:
        s = pkg.AdditiveStructure(sy["ja"], sy["jb"], sy["jt"])
        _latency, report, _start = runner._run_one(pkg, sy, s, corpus.dense(sy))
        out.append((sy, oracle.expect(sy), report))
    return out


def test_oracle_accepts_the_package_reports():
    for sy, exp, report in _pristine_reports():
        assert oracle.check(report, sy, exp) == [], sy["kind"]


def _corruptions(report):
    """Deliberately wrong variants of a correct report."""
    if report.get("rejected"):
        yield "not rejected", {"rejected": False, "status": "ENTANGLED_CERTIFIED", "witness": None,
                               "minPtEigenvalue": 0.0, "purities": [1.0, 1.0], "chsh": None}
        yield "wrong violation", {**report, "violations": [[0, 1]]}
        return
    flipped = "SEPARABLE_CERTIFIED" if report["status"] != "SEPARABLE_CERTIFIED" else "ENTANGLED_CERTIFIED"
    yield "flipped verdict", {**report, "status": flipped}
    yield "perturbed minPt", {**report, "minPtEigenvalue": report["minPtEigenvalue"] + 1e-6}
    yield "perturbed purity", {**report, "purities": [report["purities"][0] * (1 + 1e-6), report["purities"][1]]}
    yield "valid state rejected", {"rejected": True, "violations": []}
    w = report["witness"]
    if w is not None and w["kind"] == "crossed_entry":
        yield "moved witness", {**report, "witness": {**w, "col": w["col"] + 1}}
    if w is not None and w["kind"] == "ppt_block":
        yield "perturbed block eigenvalue", {**report, "witness": {**w, "minEigenvalue": w["minEigenvalue"] * 1.01}}
    if report["chsh"] is not None:
        c = report["chsh"]
        yield "perturbed fMax", {**report, "chsh": {**c, "fMax": c["fMax"] + 1e-6}}
        yield "perturbed angle", {**report, "chsh": {**c, "thetaOpt": c["thetaOpt"] + 1e-3}}
        yield "dropped certificate", {**report, "chsh": None}
        bad = copy.deepcopy(c)
        bad["anchor"][0], bad["anchor"][2] = bad["anchor"][2], bad["anchor"][0]
        yield "swapped anchor", {**report, "chsh": bad}


def test_oracle_flags_corrupted_reports():
    seen = set()
    for sy, exp, report in _pristine_reports():
        for label, bad in _corruptions(report):
            seen.add(label)
            assert oracle.check(bad, sy, exp), f"{sy['kind']}: {label} not flagged"
    assert {"flipped verdict", "perturbed fMax", "perturbed angle", "moved witness",
            "perturbed block eigenvalue", "not rejected"} <= seen


def test_cli_report_matches_in_process_report(tmp_path):
    sy = corpus.chain_full_support(3, 0, 3)
    path = tmp_path / "doc.json"
    path.write_text(corpus.document_text(sy), encoding="utf-8")
    _latency, via_cli, _start = runner.run_cli_in_process(cli, path)
    s = pkg.AdditiveStructure(sy["ja"], sy["jb"], sy["jt"])
    _latency, direct, _start = runner._run_one(pkg, sy, s, corpus.dense(sy))
    assert via_cli == direct
    assert json.loads(path.read_text(encoding="utf-8"))["matrix"][0][0] == {"re": 0.0, "im": 0.0}
