"""The process that does the certifying, driven by ``run.py``.

    python3 perfbench/runner.py PLAN.json

``PLAN.json`` names the mode, workload, seed, time budget and output file.
Modes:

* ``probe``: one set-up measurement in a fresh interpreter: import the
  package (and, for the in-process workloads, build their
  ``AdditiveStructure``s from the labels file), print the seconds;
* ``run``: the workload's closed loop, one client, each call waiting for
  the previous one, until the calls have used ``seconds`` of wall time.
  Each call's start is recorded, so ``run.py`` can divide it by the host
  slowdown sampled meanwhile (``speed.py``). With ``trace`` the same
  inputs run untraced and then traced, and the traced pass records spans.

Inputs come from ``corpus`` (seeded, so ``run.py`` can rebuild them for the
oracle); the package sees only the matrices, labels and H->ZZ parameters.
Outputs are reduced to the normalised reports ``oracle.check`` reads,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_package(workload: str):
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    if workload == "chain-cli":
        importlib.import_module("addobs_certify.cli")
    return importlib.import_module("addobs_certify")


def probe(plan: dict) -> dict:
    labels = None
    if plan.get("labels"):
        with open(plan["labels"], encoding="utf-8") as handle:
            labels = json.load(handle)
    t0 = time.perf_counter()
    pkg = _import_package(plan["workload"])
    if labels is not None:
        [pkg.AdditiveStructure(tuple(ja), tuple(jb), jt) for ja, jb, jt in labels]
    return {"setup_s": time.perf_counter() - t0, "start": t0}


# --- normalised reports ---


def _complex(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def report_from_objects(pkg, verdict, purities, cert) -> dict:
    w = verdict.witness
    if isinstance(w, pkg.CrossedEntry):
        witness = {"kind": "crossed_entry", "row": w.row, "col": w.col, "value": _complex(w.value)}
    elif isinstance(w, pkg.BlockWitness):
        witness = {
            "kind": "ppt_block",
            "mValue": w.sector.m_value,
            "qValue": w.sector.q_value,
            "minEigenvalue": w.min_eigenvalue,
        }
    else:
        witness = None
    chsh = None
    if cert is not None:
        a = cert.anchor
        chsh = {
            "anchor": [a.m0, a.p0, a.n0, a.q0],
            "value": _complex(a.value),
            "fMax": cert.f_max,
            "thetaOpt": cert.theta_opt,
            "phiOpt": cert.phi_opt,
            "aliceOrder": list(cert.reorder.alice_order),
            "bobOrder": list(cert.reorder.bob_order),
        }
    return {
        "rejected": False,
        "status": verdict.status.value,
        "witness": witness,
        "minPtEigenvalue": verdict.min_pt_eigenvalue,
        "purities": list(purities),
        "chsh": chsh,
    }


def report_from_cli(code: int, stdout: str) -> dict:
    """The normalised report of one ``certify --format json`` run."""
    if code not in (0, 2):
        return {"error": f"exit code {code}"}
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return {"error": f"unreadable report: {exc}"}
    if code == 2:
        return {
            "rejected": True,
            "violations": sorted([v["row"], v["col"]] for v in payload["textureViolations"]),
        }
    w = payload["entanglementVerdict"]["witness"]
    if w is not None:
        keys = ("row", "col") if w["kind"] == "crossed_entry" else ("mValue", "qValue", "minEigenvalue")
        witness = {"kind": w["kind"], **{k: w[k] for k in keys}}
        if "value" in w:
            witness["value"] = [w["value"]["re"], w["value"]["im"]]
    else:
        witness = None
    c = payload["chshCertificate"]
    chsh = None
    if c is not None:
        anchor = c["anchor"]
        chsh = {
            "anchor": [anchor["alice"][0], anchor["bob"][0], anchor["alice"][1], anchor["bob"][1]],
            "value": [anchor["value"]["re"], anchor["value"]["im"]],
            **{k: c[k] for k in ("fMax", "thetaOpt", "phiOpt", "aliceOrder", "bobOrder")},
        }
    return {
        "rejected": False,
        "status": payload["entanglementVerdict"]["status"],
        "witness": witness,
        "minPtEigenvalue": payload["minPtEigenvalue"],
        "purities": [payload["reducedPurities"]["A"], payload["reducedPurities"]["B"]],
        "chsh": chsh,
    }


class Results:
    """Latencies and distinct reports per input, collected untimed.

    Per-call values go into arrays: Python lists of floats would grow the
    runner's peak memory with the number of calls, and so with host speed.
    """

    def __init__(self):
        self.latencies = array("d")
        self.starts = array("d")
        self.indices = array("l")
        self.reports: dict[int, Counter] = {}

    def add(self, index: int, latency: float, report: dict, start: float) -> None:
        self.latencies.append(latency)
        self.starts.append(start)
        self.indices.append(index)
        key = json.dumps(report, sort_keys=True)
        self.reports.setdefault(index, Counter())[key] += 1

    def as_dict(self) -> dict:
        return {
            "latencies": self.latencies.tolist(),
            "starts": self.starts.tolist(),
            "indices": self.indices.tolist(),
            "reports": {str(i): dict(c) for i, c in self.reports.items()},
        }


# --- in-process workloads ---


def certify_system(pkg, system: dict, structure, mat):
    """The pipeline of one system, mirroring what ``certify`` on the CLI runs."""
    if "higgs" in system:
        rho, s = pkg.rho_from_params(pkg.params_from_measured(*system["higgs"]))
    else:
        rho, s = pkg.DensityMatrix(mat), structure
    verdict = pkg.certify(rho, s)
    purities = (pkg.reduced_purity(rho, s, "A"), pkg.reduced_purity(rho, s, "B"))
    return verdict, purities, pkg.certify_nonlocality(rho, s)


def _run_one(pkg, system, structure, mat) -> tuple[float, dict, float]:
    """(latency, normalised report, start) of one system."""
    t0 = time.perf_counter()
    try:
        out = certify_system(pkg, system, structure, mat)
    except pkg.TextureError as exc:
        latency = time.perf_counter() - t0
        return latency, {"rejected": True, "violations": sorted([v.row, v.col] for v in exc.violations)}, t0
    except Exception as exc:  # every other failure is counted, not fatal
        return time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}, t0
    latency = time.perf_counter() - t0
    return latency, report_from_objects(pkg, *out), t0


class Generated:
    """Wall time spent building inputs, kept out of every timed call."""

    def __init__(self):
        self.seconds = 0.0

    def timed(self, fn):
        def build(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - t0

        return build


def run_in_process(plan: dict) -> dict:
    import corpus
    import numpy as np

    workload, seed, n_spins = plan["workload"], plan["seed"], plan["n_spins"]
    generated = Generated()
    if workload == "small-batch":
        pool = generated.timed(lambda: [corpus.system_for(workload, seed, i, n_spins) for i in range(plan["pool"])])()
        mats = generated.timed(lambda: [corpus.dense(sy) for sy in pool])()

        def system_at(i):
            return i % len(pool), pool[i % len(pool)], mats[i % len(pool)]
    else:
        pool = generated.timed(lambda: [corpus.system_for(workload, seed, i, n_spins) for i in range(plan["pool"])])()

        @generated.timed
        def system_at(i):
            # a 5|5 matrix takes 16 MB: densified for each call, untimed
            return i % len(pool), pool[i % len(pool)], corpus.dense(pool[i % len(pool)])

    pkg = _import_package(workload)
    if workload == "small-batch":
        structures = [pkg.AdditiveStructure(sy["ja"], sy["jb"], sy["jt"]) for sy in pool]
    else:
        labels = corpus.spin_chain_labels(n_spins)
        structures = [pkg.AdditiveStructure(labels, labels, 0.0)]

    def one_pass(budget=None, n_ops=None, tracer=None):
        """Until the calls used ``budget`` seconds (at least one), or ``n_ops`` calls."""
        results, i, spent = Results(), 0, 0.0
        while i < n_ops if n_ops is not None else (spent < budget or i == 0):
            index, sy, mat = system_at(i)
            structure = structures[index if workload == "small-batch" else 0]
            if tracer is None:
                latency, report, start = _run_one(pkg, sy, structure, mat)
            else:
                tracer.doc = i
                tracer.counts[i]["nnz"] = int(np.count_nonzero(np.abs(mat) > 1e-12))
                with tracer.span("bench.system"):
                    latency, report, start = _run_one(pkg, sy, structure, mat)
                tracer.counts[i]["rejected"] = int(bool(report.get("rejected")))
            results.add(index, latency, report, start)
            spent += latency
            i += 1
        return results, i

    if not plan["trace"]:
        results, _ = one_pass(plan["seconds"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the copies out
        out = {"untraced": results.as_dict(), "peak_rss_mb": peak_rss_mb}
    else:
        from tracer import Tracer

        untraced, n_ops = one_pass(plan["seconds"] / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = one_pass(n_ops=n_ops, tracer=tracer)
        finally:
            tracer.uninstall()
        out = _traced_output(tracer, plan, untraced, traced)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["generation_s"] = generated.seconds
    return out


# --- chain-cli ---


def _cli_argv(path) -> list[str]:
    return [sys.executable, "-m", "addobs_certify", "certify", str(path), "--format", "json"]


def run_cli_subprocess(path) -> tuple[float, dict, float]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(_cli_argv(path), cwd=ROOT, env=env, capture_output=True, text=True)
    latency = time.perf_counter() - t0
    return latency, report_from_cli(proc.returncode, proc.stdout), t0


def run_cli_in_process(cli, path) -> tuple[float, dict, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(_cli_argv(path)[3:])
    latency = time.perf_counter() - t0
    return latency, report_from_cli(code, buf.getvalue()), t0


def run_chain_cli(plan: dict) -> dict:
    """Each document through ``python -m addobs_certify certify`` in a child.

    The traced run replays every document twice more in this process,
    through ``cli.main``: once untraced (the baseline of the tracing
    overhead and of the process overhead) and once traced.
    """
    import corpus
    import numpy as np

    seed, n_spins = plan["seed"], plan["n_spins"]
    cache = Path(plan["cache"])
    generated = Generated()

    @generated.timed
    def doc_at(i):
        sy = corpus.system_for("chain-cli", seed, i, n_spins)
        return sy, corpus.cached_document(cache, f"chain{n_spins}-seed{seed}", i, sy)

    subproc, i = Results(), 0
    if not plan["trace"]:
        while sum(subproc.latencies) < plan["seconds"] or i == 0:
            subproc.add(i, *run_cli_subprocess(doc_at(i)[1]))
            i += 1
        out = {"untraced": subproc.as_dict()}
    else:
        from tracer import Tracer

        cli = _import_package("chain-cli").cli
        untraced, traced, tracer = Results(), Results(), Tracer()
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < plan["seconds"] or i == 0:
            sy, path = doc_at(i)
            subproc.add(i, *run_cli_subprocess(path))
            untraced.add(i, *run_cli_in_process(cli, path))
            tracer.doc = i
            tracer.counts[i]["nnz"] = int(np.count_nonzero(np.abs(corpus.dense(sy)) > 1e-12))
            tracer.install()
            try:
                traced.add(i, *run_cli_in_process(cli, path))
            finally:
                tracer.uninstall()
            i += 1
        out = _traced_output(tracer, plan, untraced, traced)
        out["subprocess"] = subproc.as_dict()
        out["per_layer"]["cli.process_overhead_s"] = statistics.median(
            s - u for s, u in zip(subproc.latencies, untraced.latencies)
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["generation_s"] = generated.seconds
    return out


#: Spans are written for this many documents; the metrics use all of them.
SPAN_FILE_DOCS = 500


def _traced_output(tracer, plan: dict, untraced: Results, traced: Results) -> dict:
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{plan['workload']}-seed{plan['seed']}.json", SPAN_FILE_DOCS)
    values = tracer.layer_values()
    values["cli.process_overhead_s"] = 0.0
    values["trace.untraced_latency_s"] = statistics.median(untraced.latencies)
    values["trace.traced_latency_s"] = statistics.median(traced.latencies)
    values["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced.latencies, untraced.latencies)
    )
    return {
        "untraced": untraced.as_dict(),
        "traced": traced.as_dict(),
        "per_layer": values,
        "span_count": len(tracer.spans),
    }


def main(argv: list[str]) -> int:
    # on SIGTERM, unwind: subprocess.run then kills and reaps a running CLI child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with open(argv[0], encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if plan["mode"] == "probe":
        out = probe(plan)
    elif plan["workload"] == "chain-cli":
        out = run_chain_cli(plan)
    else:
        out = run_in_process(plan)
    with open(plan["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
