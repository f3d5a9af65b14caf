"""Span tracer for the benchmark's traced run.

The tracer replaces the package's public functions with thin wrappers at
every binding site, not only in the defining module: ``decomp`` does
``from .linalg import svd``, so patching ``tarst.linalg.svd`` alone would
miss every call the denoiser makes. Binding sites are found by identity:
every attribute of every loaded ``tarst`` module that *is* a traced
function gets the wrapper, and :meth:`Tracer.installed` puts the originals
back on exit.

Each call becomes a span (name, parent span, start, end), kept in memory in
compact arrays until the run ends. A span's self time is its duration
minus the durations of its direct children. The wrappers pass arguments
and results through untouched, so traced outputs are bit-identical.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array

# (module, function) pairs named by the per-layer metrics
TRACED = (
    ("linalg", "svd"),
    ("tensor_ops", "unfold"),
    ("tensor_ops", "multi_mode_product"),
    ("svht", "threshold_for_unfolding"),
    ("svht", "hard_threshold"),
    ("decomp", "tarst"),
    ("decomp", "hosvd"),
    ("decomp", "hooi"),
    ("decomp", "reconstruct"),
    ("metrics", "rrse"),
    ("bench", "gen_lowrank_tensor"),
    ("bench", "add_gaussian_noise"),
    ("bench", "inject_outliers"),
    ("tensor_io", "read_tensor"),
    ("tensor_io", "write_tensor"),
    ("cli", "main"),
)

OP = "op"  # span the benchmark opens around each timed op


def svd_flops(m: int, n: int) -> float:
    """Computed flop count of a thin SVD with singular vectors: the R-SVD
    estimate 6 M N^2 + 20 N^3 (M = max, N = min) from Golub & Van Loan's
    cost table. A label for comparing shapes, not a measured count."""
    big, small = max(m, n), min(m, n)
    return 6.0 * big * small * small + 20.0 * small ** 3


def _svd_extras(tr, args, out):
    m, n = args[0].shape
    tr.add("linalg.svd", "bytes_in", 8.0 * m * n)
    tr.add("linalg.svd", "flops", svd_flops(m, n))


def _tarst_extras(tr, args, out):
    if tr.in_op():
        tr.add("decomp.tarst", "kept", sum(out.estimated_ranks))
        tr.add("decomp.tarst", "spectrum", sum(out.estimated_ranks) + sum(out.discarded_counts))


def _read_extras(tr, args, out):
    tr.add("tensor_io.read_tensor", "bytes", os.path.getsize(args[0]))


def _write_extras(tr, args, out):
    tr.add("tensor_io.write_tensor", "bytes", os.path.getsize(args[1]))


_EXTRAS = {
    "linalg.svd": _svd_extras,
    "decomp.tarst": _tarst_extras,
    "tensor_io.read_tensor": _read_extras,
    "tensor_io.write_tensor": _write_extras,
}


class Tracer:
    """Collects spans for the functions in :data:`TRACED` plus benchmark ops."""

    def __init__(self):
        self.names = [OP] + [f"{m}.{f}" for m, f in TRACED]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extras = {}
        self._stack = []

    # -- recording -------------------------------------------------------

    def _open(self, idx: int) -> int:
        i = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(idx)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str = OP):
        i = self._open(self._index[name])
        try:
            yield
        finally:
            self._close(i)

    def in_op(self) -> bool:
        return bool(self._stack) and self.name[self._stack[0]] == 0

    def add(self, name: str, key: str, value: float) -> None:
        self.extras[(name, key)] = self.extras.get((name, key), 0.0) + value

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        extras = _EXTRAS.get(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(i)
            if extras is not None:
                extras(tr, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding site of every traced function; restore on exit."""
        originals = {}
        for mod, fn in TRACED:
            orig = getattr(importlib.import_module(f"tarst.{mod}"), fn)
            originals[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig))
        patched = []
        try:
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "tarst" or modname.startswith("tarst.")):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals over every span recorded.

        Returns ``{name: {"calls", "total_s", "self_s", "op_s"}}`` where
        ``total_s`` is inclusive time, ``self_s`` excludes direct children,
        and ``op_s`` is the inclusive time spent inside benchmark ops.
        Also ``"op"`` (total op time) and ``"hooi_svd_calls"`` (SVD spans
        nested under a HOOI span).
        """
        n = len(self.start)
        child = [0.0] * n
        root = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "op_s": 0.0}
                 for name in self.names}
        svd, hooi = self._index["linalg.svd"], self._index["decomp.hooi"]
        hooi_svd = 0
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            if self.name[root[i]] == 0:
                s["op_s"] += dur[i]
            if self.name[i] == svd:
                p = self.parent[i]
                while p >= 0 and self.name[p] != hooi:
                    p = self.parent[p]
                hooi_svd += p >= 0
        stats["hooi_svd_calls"] = hooi_svd
        return stats
