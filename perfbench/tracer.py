"""Spans around the calls into each module's public functions.

The program is not instrumented: ``Tracer.install`` rebinds every public
function of the six modules (and the two methods that carry per-entry
work) to a recording wrapper, in every module namespace that imported it,
and ``uninstall`` restores the originals. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

from corpus import SMALL_BATCH_CYCLE

PACKAGE = "addobs_certify"
LAYERS = ("cli", "structure", "linalg", "entanglement", "chsh", "higgs_zz")
#: Spans whose per-document seconds are reported as ``<name>_s``.
LAYER_SPANS = (
    "cli.load_document",
    "cli.main",
    "structure.DensityMatrix",
    "structure.validate_additivity",
    "structure.min_pt_eigenvalue",
    "structure.pt_block_decomposition",
    "linalg.partial_transpose",
    "linalg.eigenvalues_hermitian",
    "entanglement.certify",
    "entanglement.find_crossed_entries",
    "entanglement.block_ppt_min_eig",
    "entanglement.reduced_purity",
    "chsh.certify_nonlocality",
    "chsh.find_anchor_entries",
    "chsh.f_max_closed_form",
    "chsh.BasisReordering.apply",
    "higgs_zz.rho_from_params",
)
COUNTS = ("nnz", "crossed_entries", "anchors", "ppt_blocks", "max_block_dim", "document_mb")
#: Every per-layer metric with its unit; ``runner.py`` adds the ``trace.*``
#: latencies and ``cli.process_overhead_s`` to ``Tracer.layer_values``.
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "cli.process_overhead_s": "s",
    "structure.scan_ns_per_nnz": "ns",
    "chsh.closed_form_s_per_anchor": "s",
    "chsh.kept_per_closed_form": "ratio",
    **{f"count.{key}": "count" for key in COUNTS},
    "count.document_mb": "MB",
    "count.rejected": "count",
    "trace.untraced_latency_s": "s",
    "trace.traced_latency_s": "s",
    "trace.overhead_s": "s",
}
#: (module, class, method, span name) traced besides module functions.
METHODS = (
    ("structure", "DensityMatrix", "__post_init__", "structure.DensityMatrix"),
    ("chsh", "BasisReordering", "apply", "chsh.BasisReordering.apply"),
)


def _count(name: str, args, result, counts: dict) -> None:
    """Work counts taken at the same boundaries as the spans."""
    if name == "entanglement.find_crossed_entries":
        counts["crossed_entries"] = len(result)
    elif name == "chsh.find_anchor_entries":
        counts["anchors"] = len(result)
    elif name == "entanglement.block_ppt_min_eig":
        counts["ppt_blocks"] = counts.get("ppt_blocks", 0) + 1
        counts["max_block_dim"] = max(counts.get("max_block_dim", 0), args[0].matrix.shape[0])
    elif name == "cli.load_document":
        counts["document_mb"] = os.path.getsize(args[0]) / 1e6


class Tracer:
    """Records (name, start, end, parent, doc, outermost) per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict] = defaultdict(dict)
        self.doc = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.doc, self._depth[name] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] += 1
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            _count(name, args, result, self.counts[self.doc])
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one document's root."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, originals[id(value)][1])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def per_doc(self) -> dict[int, dict[str, list]]:
        """{doc: {span name: [seconds in outermost calls, call count]}}."""
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for name, start, end, _parent, doc, outer in self.spans:
            entry = out[doc][name]
            entry[0] += (end - start) if outer else 0.0
            entry[1] += 1
        return out

    def layer_values(self) -> dict[str, float]:
        """The span- and count-based per-layer metrics, medians per document.

        A span total is the median over the documents that reach the layer,
        and 0 where none does; counts are medians over all documents.
        """
        per_doc = self.per_doc()
        docs = [(per_doc.get(doc, {}), counts) for doc, counts in self.counts.items() if doc >= 0]

        def median(values):
            values = list(values)
            return statistics.median(values) if values else 0.0

        values = {f"{name}_s": median(s[name][0] for s, _ in docs if name in s) for name in LAYER_SPANS}
        scans = []
        for spans, counts in docs:
            if "structure.validate_additivity" in spans and counts.get("nnz"):
                total, calls = spans["structure.validate_additivity"]
                scans.append(total / (calls * counts["nnz"]) * 1e9)
        values["structure.scan_ns_per_nnz"] = median(scans)
        evaluated = [s["chsh.f_max_closed_form"] for s, _ in docs if "chsh.f_max_closed_form" in s]
        values["chsh.closed_form_s_per_anchor"] = median(total / calls for total, calls in evaluated)
        values["chsh.kept_per_closed_form"] = median(1.0 / calls for _total, calls in evaluated)
        for key in COUNTS:
            values[f"count.{key}"] = median(counts.get(key, 0) for _, counts in docs)
        # over one cycle of the small-batch mix, so the count does not grow
        # with the length of the traced pass
        first_cycle = range(len(SMALL_BATCH_CYCLE))
        values["count.rejected"] = sum(
            counts.get("rejected", 0) for doc, counts in self.counts.items() if doc in first_cycle
        )
        return values

    def write(self, path, max_docs: int) -> None:
        """Spans of the first ``max_docs`` documents, as one JSON file."""
        fields = ["name", "start", "end", "parent", "doc", "outermost"]
        spans = [span for span in self.spans if span[4] < max_docs]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": spans}, handle)
