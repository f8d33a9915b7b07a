"""Host speed monitor: fixed reference kernels sampled beside the workload.

    python3 perfbench/speed.py KERNEL...   # samples until its standard input closes

A shared cloud host changes speed by up to a factor of two, within a
second or two as well as over minutes (other tenants load its cores), and
process CPU time follows wall time, so it does not help. ``run.py``
therefore pins itself, and so every process it starts, to one CPU, and
runs this file as a second process there: every ``PERIOD_S`` it times
fixed kernels and records how much slower than on the reference host they
ran. The speed of a CPU follows the load on its own core: two kernels on
one CPU agreed to r = 0.95 over half-second windows, on the two CPUs of the
same host to r = 0.27-0.67. Each timed call is divided by the slowdown
sampled while it ran (``Monitor.slowdown``), so the gated timings are
seconds at reference speed. The kernels import nothing of the package, so
a change to the program cannot move them.

How much a contended core slows a program depends on the program, so each
workload is matched with the kernels whose slowdown tracks its own
(``run.KERNELS``): a tight Python loop and a loop of small numpy calls for
the dense 5|5 workloads, a broad mix of different small calls for the
small-system batch, whose work spreads over many code paths.
"""

from __future__ import annotations

import bisect
import collections
import json
import math
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Seconds between two samples (each takes about 3 ms of the shared CPU).
PERIOD_S = 0.1
#: A sample times this many short pieces of each kernel and keeps the
#: median, so a piece the scheduler cuts in two does not count.
PIECES = 7
#: Median seconds of one piece on the reference host (Intel Xeon, 2 vCPUs,
#: Python 3.11, numpy 2.4, busy CPU). Any fixed values would do: they only
#: set the scale of the reported seconds.
REFERENCE_S = {"python": 2.3e-4, "numpy": 2.1e-4, "broad": 3.0e-4}
#: A call shorter than this is divided by the slowdown over this window
#: around it, so that it averages several samples.
MIN_WINDOW_S = 1.0


def _python_kernel() -> None:
    table: dict[tuple[int, int], float] = {}
    for i in range(12):
        for j in range(40):
            if (i + j) % 3:
                table[(i, j)] = table.get((j, i), 0.5) + i * 0.25 - j
    sorted(table.items(), key=lambda kv: kv[1])


def _small_hermitian() -> np.ndarray:
    b = np.random.default_rng(0).standard_normal((6, 6)) * (1 + 1j)
    return b + b.conj().T


def _numpy_kernel(small: np.ndarray) -> None:
    for _ in range(8):
        m = small * 0.5
        np.flatnonzero(np.abs(m) > 1e-12)
        np.linalg.eigvalsh(m)
        np.trace(m).real


def _broad_kernel(small: np.ndarray) -> None:
    """Many different small calls, as the per-system pipeline makes."""
    doc = {"a": [1, 2.5, "x"], "b": {"c": None}, "n": list(range(10))}
    json.loads(json.dumps(doc))
    re.match(r"(\w+)-(\d+)", "abc-%d" % 5)
    np.kron(small[:2, :2], small[:3, :3])
    np.einsum("ij,jk->ik", small, small)
    np.argsort(small.real, axis=None)
    np.linalg.eigh(small)
    np.linalg.svd(small)
    small.conj().T @ small
    np.isclose(small, small).all()
    np.unique(np.round(small.real, 3))
    np.flatnonzero(np.abs(small) > 0.5)
    np.add.outer(small[0].real, small[1].real)
    np.trace(small)
    sorted([(i % 7, str(i)) for i in range(40)])
    collections.Counter("abracadabra" * 3)


def _piece_s(kernel) -> float:
    times = []
    for _ in range(PIECES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sample(kernels: list[str], small: np.ndarray) -> float:
    """One slowdown: geometric mean over ``kernels`` of seconds / reference."""
    run = {
        "python": _python_kernel,
        "numpy": lambda: _numpy_kernel(small),
        "broad": lambda: _broad_kernel(small),
    }
    logs = [math.log(_piece_s(run[name]) / REFERENCE_S[name]) for name in kernels]
    return math.exp(sum(logs) / len(logs))


class Monitor:
    """This file run as a child process, sampling until the context is left.

    Sample times are ``time.perf_counter()`` values, which on Linux read the
    system-wide monotonic clock, so they compare with those of any process.
    """

    def __init__(self, kernels=("python", "numpy"), samples: list[tuple[float, float]] | None = None):
        self.kernels = list(kernels)
        self._proc = None
        self._set(samples or [])

    def _set(self, samples: list[tuple[float, float]]) -> None:
        self.samples = samples  # (time, slowdown), in time order
        self._times = [t for t, _r in samples]

    def __enter__(self) -> "Monitor":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *self.kernels],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._proc.stdout.readline()  # "ready": imported and sampling
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _err = self._proc.communicate(timeout=10)  # closes its stdin
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed monitor failed ({self._proc.returncode})")
        self._set([tuple(s) for s in json.loads(out)])

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Slowdown over ``[start, end]``: the ratio of reference to mean speed.

        Speed is the inverse of a sample's slowdown, so this is their
        harmonic mean. A window shorter than ``MIN_WINDOW_S`` is widened to
        it about its middle; without a sample inside, the nearest one counts.
        """
        if end - start < MIN_WINDOW_S:
            mid = (start + end) / 2.0
            start, end = mid - MIN_WINDOW_S / 2.0, mid + MIN_WINDOW_S / 2.0
        lo, hi = bisect.bisect_left(self._times, start), bisect.bisect_right(self._times, end)
        inside = [r for _t, r in self.samples[lo:hi]]
        if not inside:
            inside = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return len(inside) / sum(1.0 / r for r in inside)


def main(kernels: list[str]) -> int:
    small = _small_hermitian()
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        samples.append((start, sample(kernels, small)))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
