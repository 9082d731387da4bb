"""Spans around calls into chaincert, installed from outside the program.

``Tracer.install`` replaces each public function of the package's modules,
in every module namespace that holds it, with a wrapper that records one
span (name, start, end, parent id). The constructors of
``MetricMeasureSpace`` and ``MinorizingMetrics`` get spans as well, and
``ConvexGauge.value`` is counted (not spanned) while a Luxemburg solve runs.
``uninstall`` restores every original. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import Counter

import chaincert as cc

LAYERS = ("young", "mspace", "minorize", "chain", "orlicz", "verify", "mc", "cli")
CONSTRUCTORS = (("mspace", "MetricMeasureSpace"), ("minorize", "MinorizingMetrics"))


def _module(layer):
    return importlib.import_module(f"chaincert.{layer}")


def _namespaces():
    return [cc] + [_module(layer) for layer in LAYERS]


def public_functions():
    """(layer, name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        mod = _module(layer)
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((layer, name, obj))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent) with parent -1 at top level
        self.counts = Counter()
        self.space_peak_b = 0
        self._stack = []
        self._undo = []
        self._solving = 0

    # -- span recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            out = self._call(name, fn, args, kwargs)
            if count:
                count(self.counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_space_init(self, fn):
        # the memory peak of validation is what large spaces pay for
        def traced(space, *args, **kwargs):
            tracemalloc.start()
            try:
                return self._call("mspace.MetricMeasureSpace", fn, (space,) + args, kwargs)
            finally:
                self.space_peak_b = max(self.space_peak_b, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced

    def _wrap_luxemburg(self, wrapper):
        def solving(*args, **kwargs):
            self._solving += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                self._solving -= 1

        return solving

    def _wrap_gauge_value(self, fn):
        def counted(gauge, x):
            if self._solving:
                self.counts["orlicz.gauge_evals"] += 1
            return fn(gauge, x)

        return counted

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        namespaces = _namespaces()
        for layer, name, fn in public_functions():
            wrapper = self._wrap(f"{layer}.{name}", fn)
            if name == "luxemburg_norm":
                wrapper = self._wrap_luxemburg(wrapper)
            for ns in namespaces:
                if getattr(ns, name, None) is fn:
                    self._set(ns, name, wrapper)
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(_module(layer), cls_name)
            init = cls.__init__
            if cls_name == "MetricMeasureSpace":
                self._set(cls, "__init__", self._wrap_space_init(init))
            else:
                self._set(cls, "__init__", self._wrap(f"{layer}.{cls_name}", init))
        self._set(cc.ConvexGauge, "value", self._wrap_gauge_value(cc.ConvexGauge.value))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def series_terms(self):
        return self.counts["young.series_terms"]


# -- counts taken at the same boundaries as the spans ----------------------------


def _count_series(counts, args, out):
    counts["young.series_terms"] += out.terms


def _count_cert(counts, args, out):
    counts["chain.levels"] += out.kstar + 1


def _count_pairs(counts, args, out):
    counts["verify.pairs"] += sum(int(p.iu.size) for p in out.pair_checks)


def _count_atoms(counts, args, out):
    counts["orlicz.atoms"] += int(getattr(args[0], "size", len(args[0])))


def _count_mc_pairs(counts, args, out):
    paths, n = args[0].values.shape
    counts["mc.pair_evals"] += paths * n * (n - 1) // 2


def _count_bytes(counts, args, out):
    counts["cli.bytes_written"] += sum(p.stat().st_size for p in out)


_COUNTERS = {
    "young.shifted_series": _count_series,
    "chain.certificate_thm1": _count_cert,
    "chain.certificate_thm3": _count_cert,
    "verify.verify_thm1": _count_pairs,
    "verify.verify_thm3": _count_pairs,
    "orlicz.luxemburg_norm": _count_atoms,
    "mc.empirical_corollary": _count_mc_pairs,
    "cli.emit_report": _count_bytes,
}


# -- summaries ---------------------------------------------------------------------


def self_times(spans):
    """Self time per span name: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
        calls[name] += 1
    return out, calls


def top_level_seconds(spans):
    return sum(end - start for _, start, end, parent in spans if parent < 0)
