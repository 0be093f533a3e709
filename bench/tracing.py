"""Span tracing around imdd's layer boundaries, installed from outside.

A traced run replaces selected module attributes of ``imdd`` with wrappers
that record one span per call (name, start, end, parent span, operation
id) plus per-layer counters.  Spans stay in memory until the run ends.
The wrappers are installed and removed by ``Tracer`` as a context manager;
callers inside the package look the attributes up at call time, so every
caller sees the wrapper while it is installed and the original afterwards.
"""

from __future__ import annotations

import csv
import functools
import gzip
import os
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import numpy as np


def _points(args, kwargs, result):
    return {"points": np.size(args[1])}


def _conv_points(args, kwargs, result):
    return {"points": np.size(args[0]) + np.size(args[1])}


def _fold_terms(args, kwargs, result):
    # folded_pair(eval_fn, ts, t, k, decay) rounds k up to even and sums
    # 2k+1 shifts at every point of t
    k = int(args[3]) + int(args[3]) % 2
    return {"terms": (2 * k + 1) * np.size(args[2])}


def _k_budget(args, kwargs, result):
    return {"k_max": result, "k_sum": result}


def _mc_symbols(args, kwargs, result):
    return {"symbols": result.n_symbols}


def _artifact(args, kwargs, result):
    path = args[0].output
    with open(path, newline="", encoding="utf-8") as fh:
        rows = sum(1 for line in fh if not line.startswith("#")) - 1
    return {"rows": rows, "artifact_bytes": os.path.getsize(path)}


class Layer(NamedTuple):
    """One wrapped attribute: ``imdd.<module>.<attr>`` reported as ``name``."""

    name: str
    module: str
    attr: str
    count: Callable | None = None
    lru: bool = False        # count hits and misses from cache_info()


LAYERS = (
    Layer("pulses.evaluate", "pulses", "evaluate", _points),
    Layer("pulses.autocorrelation", "pulses", "autocorrelation", _points),
    Layer("series.folded_pair", "_series", "folded_pair", _fold_terms),
    Layer("series.golden_max", "_series", "golden_max"),
    Layer("series.k_for_tol", "_series", "k_for_tol", _k_budget),
    Layer("bias.required_bias", "bias", "required_bias"),
    Layer("bias._search", "bias", "_search", lru=True),
    Layer("link.receiver_samples", "link", "receiver_samples"),
    Layer("link.fftconvolve", "link", "fftconvolve", _conv_points),
    Layer("link.monte_carlo_ser", "link", "monte_carlo_ser", _mc_symbols),
    Layer("waveform.synthesize", "waveform", "synthesize"),
    Layer("waveform.eye_diagram", "waveform", "eye_diagram"),
    Layer("waveform.fftconvolve", "waveform", "fftconvolve", _conv_points),
    Layer("gains.gain_point", "gains", "gain_point"),
    Layer("cli.run", "cli", "run", _artifact),
)


class Tracer:
    """Records spans and counters for the layers it wraps.

    ``op`` names the operation (grid point, Monte Carlo call, CLI command)
    the benchmark is running; every span records it.  Setting it on a
    tracer that is not installed is harmless, so untraced runs use one too.
    """

    def __init__(self, package):
        self.package = package
        self.op = ""
        self.spans: list = []          # (name, t0, t1, parent index, op)
        self.counts: dict = defaultdict(Counter)
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for layer in LAYERS:
            module = getattr(self.package, layer.module)
            orig = getattr(module, layer.attr)
            self._saved.append((module, layer.attr, orig))
            setattr(module, layer.attr, self._wrap(layer, orig))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
        return False

    def _wrap(self, layer: Layer, orig):
        spans, stack, counts = self.spans, self._stack, self.counts[layer.name]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts["calls"] += 1
            misses = orig.cache_info().misses if layer.lru else 0
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                counts["failed"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (layer.name, t0, t1, parent, self.op)
                # a call that raised is still a miss: lru_cache counted it
                if layer.lru:
                    missed = orig.cache_info().misses - misses
                    counts["misses"] += missed
                    counts["hits"] += 1 - missed
            if layer.count is not None:
                for key, value in layer.count(args, kwargs, result).items():
                    if key.endswith("_max"):
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            return result

        # functools.wraps copies __dict__ only; methods such as an
        # lru_cache's cache_info / cache_clear must stay reachable too
        for attr in dir(orig):
            if not attr.startswith("__") and not hasattr(wrapper, attr):
                setattr(wrapper, attr, getattr(orig, attr))
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per-layer time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<counter>`` map, including ``self_s`` and the
        lru hit ratio, for every wrapped layer."""
        out: dict[str, float] = {}
        self_s = self.self_times()
        for layer in LAYERS:
            counts = self.counts[layer.name]
            for key in ("calls", "failed", *(counts.keys())):
                out[f"{layer.name}.{key}"] = counts[key]
            out[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0)
            if layer.lru:
                total = counts["hits"] + counts["misses"]
                out[f"{layer.name}.hit_ratio"] = (
                    counts["hits"] / total if total else 0.0)
        return out

    def write(self, path: str):
        """Write the spans as gzipped CSV: index, name, start, end, parent,
        operation (times in seconds from the first span)."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent",
                             "op"))
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                writer.writerow((i, name, f"{t0 - base:.9f}",
                                 f"{t1 - base:.9f}", parent, op))

