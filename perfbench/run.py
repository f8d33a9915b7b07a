"""Benchmark of addobs-certify: three seeded workloads, checked by an oracle.

    python3 perfbench/run.py --workload chain-cli|sector-ppt|small-batch \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root (the package is imported from ``src``). The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0`` (times in seconds at reference speed, see ``speed.py``),
the per-layer ones with ``--trace 1``. The line before it
records the environment; a full record goes to
``.perfbench/results/``. ``--smoke`` runs a tiny corpus (3|3 chain cuts,
a short small-batch pool) for the benchmark's own tests.

See README.md next to this file for why each workload exists and which
per-layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: BLAS threads for every process the benchmark starts: they all run on
#: one CPU (see ``speed.py``).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread count is fixed)

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import oracle  # noqa: E402
from speed import Monitor  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("chain-cli", "sector-ppt", "small-batch")
#: Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_PROBES = 10
#: Distinct systems in each in-process workload's pool, walked in order and
#: wrapped: sector-ppt's four (two of each verdict) are each visited about
#: four times in 25 s, so one stalled call does not set its tail.
POOL = {"sector-ppt": 4, "small-batch": 2000}
#: The ``speed.py`` kernels whose slowdown tracks each workload's.
KERNELS = {"chain-cli": ("python", "numpy"), "sector-ppt": ("python", "numpy"), "small-batch": ("broad",)}
#: Each run must end well inside the 180 s a run is allowed.
RUNNER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency, by nearest rank.

    The highest percentile with at least ten samples beyond it, but never
    below p90: with fewer than 110 samples that rule would fall towards the
    median, so p90 of the samples there are is reported instead (the
    maximum, with fewer than ten).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[k], 100.0 * (k + 1) / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, nproc: int, cpu: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "pinned_cpu": cpu,
        "cpu": _cpu_model(),
        "nproc": nproc,
        "seed": seed,
    }


def _runner(plan: dict, run_dir: Path, name: str) -> dict:
    plan = {**plan, "out": str(run_dir / f"{name}.json")}
    plan_path = run_dir / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "runner.py"), str(plan_path)],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _out, err = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()  # the runner stops and reaps its own CLI child first
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"runner {name} failed ({proc.returncode}):\n{err[-2000:]}")
    return json.loads(Path(plan["out"]).read_text(encoding="utf-8"))


def grade(workload, seed, n_spins, passes: list[dict], known: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first messages) over every report of every pass.

    ``known`` maps input indices to systems already generated.
    """
    expected, attempted, failed, messages = {}, 0, 0, []
    for results in passes:
        for index, distinct in results["reports"].items():
            for key, times in distinct.items():
                attempted += times
                report = json.loads(key)
                if "error" in report:
                    errors = [report["error"]]
                else:
                    i = int(index)
                    if i not in expected:
                        sy = known.get(i) or corpus.system_for(workload, seed, i, n_spins)
                        expected[i] = (sy, oracle.expect(sy))
                    errors = oracle.check(report, *expected[i])
                if errors:
                    failed += times
                    messages += [f"input {index}: {e}" for e in errors[:3]]
    return attempted, failed, messages[:20]


def _summary(latencies: list[float], indices: list[int], setup: list[float], rss: float) -> tuple[dict, dict]:
    visits: dict[int, list[float]] = {}
    for index, latency in zip(indices, latencies):
        visits.setdefault(index, []).append(latency)
    per_input = [statistics.median(v) for v in visits.values()]
    tail_value, tail_pct = tail(per_input)
    values = {
        "setup_s": statistics.median(setup),
        "docs_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(per_input),
        "latency_tail_s": tail_value,
        "peak_rss_mb": rss,
    }
    return values, {"samples": len(latencies), "inputs": len(per_input), "tail_percentile": tail_pct}


def end_to_end(out: dict, setup: list[dict], monitor: Monitor) -> tuple[dict[str, float], dict]:
    """The gated metrics, with times in seconds at reference speed.

    Each timed call and each set-up probe is divided by the host's slowdown
    against the reference host while it ran (``speed.py``), so that the
    machine's own drift in speed cancels; the wall-clock values are kept in
    the record. Latency percentiles are taken over distinct inputs: an
    input the loop visits several times (the in-process pools wrap around)
    counts once, with the median of its visits, so a momentary stall of the
    machine does not masquerade as a slow input.
    """
    untraced, rss = out["untraced"], out["peak_rss_mb"]
    latencies, indices = untraced["latencies"], untraced["indices"]
    per_call = [monitor.slowdown(s, s + t) for s, t in zip(untraced["starts"], latencies)]
    per_probe = [monitor.slowdown(p["start"], p["start"] + p["setup_s"]) for p in setup]
    wall, info = _summary(latencies, indices, [p["setup_s"] for p in setup], rss)
    values, _ = _summary(
        [t / s for t, s in zip(latencies, per_call)],
        indices,
        [p["setup_s"] / s for p, s in zip(setup, per_probe)],
        rss,
    )
    speed = {
        "kernels": monitor.kernels,
        "slowdown": monitor.slowdown(),
        "samples": len(monitor.samples),
        "per_call_median": statistics.median(per_call),
        "per_probe_median": statistics.median(per_probe),
    }
    return {k: values[k] for k in END_TO_END_UNITS}, {
        **info,
        "setup_samples": len(setup),
        "speed": speed,
        "wall_metrics": wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "addobs_certify" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # this process, the runner, the CLI children and the speed monitor all
    # share one CPU, so the monitor sees the speed the workload gets
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    n_spins = 3 if args.smoke else 5
    pool = min(POOL.get(args.workload, 0), 60 if args.smoke else math.inf)
    probes = 2 if args.smoke else SETUP_PROBES
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    plan = {
        "mode": "run",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_spins": n_spins,
        "pool": pool,
        "cache": str(WORK / "cache"),
    }
    try:
        labels, known = None, {}
        if args.workload == "small-batch":
            known = {i: corpus.small_system(args.seed, i) for i in range(pool)}
            labels = [[sy["ja"], sy["jb"], sy["jt"]] for sy in known.values()]
        elif args.workload == "sector-ppt":
            chain = corpus.spin_chain_labels(n_spins)
            labels = [[chain, chain, 0.0]]
        probe_plan = {**plan, "mode": "probe", "labels": None}
        if labels is not None:
            (run_dir / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
            probe_plan["labels"] = str(run_dir / "labels.json")
        # half the set-up probes before the run and half after, so their
        # median spans the machine's load over the whole run
        with Monitor(KERNELS[args.workload]) as monitor:
            setup = [_runner(probe_plan, run_dir, f"probe{k}") for k in range(probes // 2)]
            t0 = time.perf_counter()
            out = _runner(plan, run_dir, "run")
            run_wall = time.perf_counter() - t0
            setup += [_runner(probe_plan, run_dir, f"probe{k}") for k in range(probes // 2, probes)]

        t0 = time.perf_counter()
        passes = [out[k] for k in ("subprocess", "untraced", "traced") if k in out]
        attempted, failed, messages = grade(args.workload, args.seed, n_spins, passes, known)
        oracle_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics, units = out["per_layer"], PER_LAYER_UNITS
        info = {"samples": len(out["traced"]["latencies"]), "spans": out["span_count"]}
    else:
        metrics, info = end_to_end(out, setup, monitor)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": environment(args.seed, nproc, cpu),
        **info,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": messages,
        "generation_s": out["generation_s"],
        "runner_wall_s": run_wall,
        "oracle_s": oracle_s,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "failures")}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
