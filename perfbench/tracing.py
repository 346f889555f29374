"""Spans around the calls into each layer of sparseborn, installed from outside.

Nothing here edits the package: the tracer swaps functions and methods for
timing wrappers when the traced run starts and puts the originals back
when it ends.  A module-level function is replaced in every sparseborn
module that binds it, so calls made inside the package (``evaluate``
calling ``encode`` and ``fit``, ``predict_batch`` calling the kernel) are
seen as well as the benchmark's own.  A target that no longer exists is
recorded as absent, and every metric that needs it is reported absent
instead of failing the run.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from stats import Ratio, self_time

# (span name, "module" or "module:Class", attribute)
TARGETS = (
    ("data.ingest", "sparseborn.data", "load_token_records"),
    ("data.ingest", "sparseborn.data", "load_tabular"),
    ("data.encode", "sparseborn.data", "encode"),
    ("data.obs_counts", "sparseborn.data:EncodedObservation", "counts"),
    ("counts.iadd", "sparseborn.counts:SparseCounts", "iadd"),
    ("counts.keep_feature_dims", "sparseborn.counts:SparseCounts", "keep_feature_dims"),
    ("model.fit", "sparseborn.model", "fit"),
    ("model.table", "sparseborn.model:Model", "_table"),
    ("model.build_table", "sparseborn.model:Model", "_build_table"),
    ("model.query_arrays", "sparseborn.model:Model", "_query_arrays"),
    ("model.predict_batch", "sparseborn.model:Model", "predict_batch"),
    ("model.predict", "sparseborn.model:Model", "predict"),
    ("model.predict_at_dims", "sparseborn.model:Model", "predict_at_dims"),
    ("model.update", "sparseborn.model:Model", "update"),
    ("model.save", "sparseborn.model:Model", "save"),
    ("model.load", "sparseborn.model", "load"),
    ("kernels.accum", "sparseborn._kernels", "accum_real"),
    ("kernels.accum", "sparseborn._kernels", "accum_complex"),
    ("explain.local", "sparseborn.explain", "explain_local"),
    ("explain.global", "sparseborn.explain", "explain_global"),
    ("policy.search", "sparseborn.policy", "learn_policy"),
    ("evaluate.experiment", "sparseborn.evaluate", "repeated_split_experiment"),
    ("evaluate.score", "sparseborn.evaluate", "score"),
)

PREDICT_SPANS = ("model.predict_batch", "model.predict", "model.predict_at_dims")
MAX_DEPTH_BUCKET = 5


class Tracer:
    """In-memory spans (name, parent, start, end) plus counters from call hooks."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.absent: set = set()
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._active = [True]

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        present = {name for name, owner, attr in TARGETS if self._install_one(name, owner, attr)}
        self.absent = {name for name, _, _ in TARGETS} - present

    def _install_one(self, name: str, owner: str, attr: str) -> bool:
        module_name, _, class_name = owner.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        hook = HOOKS.get(attr)
        if class_name:
            cls = getattr(module, class_name, None)
            if cls is None or attr not in vars(cls):
                return False
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, original, hook))
            self._undo.append((cls, attr, original))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "sparseborn":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
        return True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans and no counters."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- queries over the recorded spans --------------------------------

    def children(self):
        children = defaultdict(list)
        for sid, (_, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        return children

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def self_total(self, names, children=None) -> float:
        children = self.children() if children is None else children
        return sum(
            self_time(s[2], s[3], children.get(sid, ()))
            for sid, s in enumerate(self.spans)
            if s[0] in names
        )

    def has_ancestor(self, sid: int, name: str, direct: bool = False) -> bool:
        parent = self.spans[sid][1]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            if direct:
                return False
            parent = self.spans[parent][1]
        return False

    def under(self, name: str, ancestor: str, direct: bool = False) -> List[int]:
        return [
            sid
            for sid, s in enumerate(self.spans)
            if s[0] == name and self.has_ancestor(sid, ancestor, direct)
        ]

    def dump(self) -> dict:
        return {"fields": ["name", "parent", "start", "end"], "spans": self.spans}


# -- counters taken from arguments and results -------------------------


def _encode_hook(counters, args, result):
    records = args[0]
    if isinstance(records, (list, tuple)):
        counters["data.tokens_in"] += sum(len(rec.features) for rec in records)
        counters["data.tokens_kept"] += sum(
            len(dim_map) for obs in result for dim_map in obs.feature_weights
        )


def _kernel_hook(counters, args, result):
    if len(args) == 6:  # accum_real(col_ptr, rows, amp, qcols, qvals, acc)
        col_ptr, rows, amp, qcols, qvals, acc = args
    else:  # accum_complex(col_ptr, rows, amp, phi, qcols, qvals, qtheta, acc_re, acc_im)
        col_ptr, rows, amp, _, qcols, qvals, _, acc, _ = args
    entries = int((col_ptr[qcols + 1] - col_ptr[qcols]).sum())
    counters["kernels.entries_touched"] += entries
    counters["kernels.bytes_computed"] += entries * (
        rows.itemsize + amp.itemsize + 2 * acc.itemsize
    ) + len(qcols) * (qcols.itemsize + qvals.itemsize + 2 * col_ptr.itemsize)


def _predict_batch_hook(counters, args, result):
    for _, _, depth in result:
        counters[f"model.fallback_depth_{min(depth, MAX_DEPTH_BUCKET)}"] += 1


def _predict_at_dims_hook(counters, args, result):
    counters["policy.useful"] += result is not None


def _learn_policy_hook(counters, args, result):
    counters["policy.states_explored"] += len(result[1].explored)


HOOKS = {
    "encode": _encode_hook,
    "accum_real": _kernel_hook,
    "accum_complex": _kernel_hook,
    "predict_batch": _predict_batch_hook,
    "predict_at_dims": _predict_at_dims_hook,
    "learn_policy": _learn_policy_hook,
}


# -- per-layer metrics ---------------------------------------------------


def depth_metric(d: int) -> str:
    return f"model.fallback_depth_{d}" if d < MAX_DEPTH_BUCKET else f"model.fallback_depth_{d}plus"


def layer_metrics(tracer: Tracer, measured: Dict[str, float]):
    """Per-layer metrics from the spans, plus values the workload measured itself.

    Returns (metrics, ratios, absent): name -> value, ratio name -> Ratio,
    and the names whose span targets were missing or whose base was zero.
    """
    t, c = tracer, tracer.counters
    children = t.children()
    values = {}
    ratios = {}
    needs = {}

    def put(name, value, *spans):
        needs[name] = spans
        values[name] = value

    def put_ratio(name, ratio, *spans):
        ratios[name] = ratio
        put(name, ratio.value, *spans)

    put("data.ingest_s", t.total("data.ingest"), "data.ingest")
    put("data.encode_s", t.total("data.encode"), "data.encode")
    put("data.obs_counts_s", t.total("data.obs_counts"), "data.obs_counts")
    put("data.tokens_in", c["data.tokens_in"], "data.encode")
    put_ratio(
        "data.tokens_kept_ratio", Ratio(c["data.tokens_kept"], c["data.tokens_in"]), "data.encode"
    )
    put("counts.iadd_calls", t.count("counts.iadd"), "counts.iadd")
    put("counts.iadd_s", t.total("counts.iadd"), "counts.iadd")
    put("counts.nnz", measured.get("counts.nnz"))
    put("counts.bytes_per_nnz", measured.get("counts.bytes_per_nnz"))
    put("counts.keep_feature_dims_calls", t.count("counts.keep_feature_dims"), "counts.keep_feature_dims")
    put("counts.keep_feature_dims_s", t.total("counts.keep_feature_dims"), "counts.keep_feature_dims")
    put("model.fit_self_s", t.self_total(("model.fit",), children), "model.fit")
    builds = t.count("model.build_table")
    lookups = t.count("model.table")
    put("model.table_builds", builds, "model.build_table")
    put("model.table_build_s", t.total("model.build_table"), "model.build_table")
    put_ratio(
        "model.table_hit_ratio", Ratio(lookups - builds, lookups), "model.table", "model.build_table"
    )
    put("model.query_arrays_s", t.total("model.query_arrays"), "model.query_arrays")
    put("model.predict_self_s", t.self_total(PREDICT_SPANS, children), *PREDICT_SPANS)
    put("model.update_s", t.total("model.update"), "model.update")
    put("model.save_s", t.total("model.save"), "model.save")
    put("model.load_s", t.total("model.load"), "model.load")
    put("model.archive_bytes", measured.get("model.archive_bytes"))
    for d in range(MAX_DEPTH_BUCKET + 1):
        put(depth_metric(d), c[f"model.fallback_depth_{d}"], "model.predict_batch")
    put("kernels.calls", t.count("kernels.accum"), "kernels.accum")
    put("kernels.s", t.total("kernels.accum"), "kernels.accum")
    put("kernels.entries_touched", c["kernels.entries_touched"], "kernels.accum")
    put("kernels.bytes_computed", c["kernels.bytes_computed"], "kernels.accum")
    put("explain.local_s", t.self_total(("explain.local",), children), "explain.local")
    put(
        "explain.predict_s",
        sum(t.spans[s][3] - t.spans[s][2] for s in t.under("model.predict", "explain.local", direct=True)),
        "explain.local",
        "model.predict",
    )
    put("explain.global_s", t.total("explain.global"), "explain.global")
    at_dims = t.count("model.predict_at_dims")
    put("policy.search_s", t.total("policy.search"), "policy.search")
    put("policy.states_explored", c["policy.states_explored"], "policy.search")
    put("policy.predict_at_dims_calls", at_dims, "policy.search", "model.predict_at_dims")
    put_ratio(
        "policy.useful_ratio",
        Ratio(c["policy.useful"], at_dims),
        "policy.search",
        "model.predict_at_dims",
    )
    put("evaluate.fits", len(t.under("model.fit", "evaluate.experiment")), "evaluate.experiment", "model.fit")
    put("evaluate.score_s", t.total("evaluate.score"), "evaluate.score")

    absent = sorted(
        name
        for name, value in values.items()
        if value is None or any(span in t.absent for span in needs[name])
    )
    return {k: v for k, v in values.items() if k not in absent}, ratios, absent
