"""Span tracing of prulab's layers, installed from outside the library.

``Tracer.install`` replaces each traced function at every place its name
is bound: on its class for methods, and for functions in every loaded
``prulab`` module (module-level ``from ... import`` copies included), in
the extra modules passed in, and in the defining module itself, which for
the LAPACK kernels is ``numpy.linalg``.  ``uninstall`` puts the originals
back.  Spans are kept in memory as ``(id, parent, unit, name, t0, t1,
work)`` tuples and written out once, when the run ends; self times are
derived from them afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

UNIT = "bench.unit"


def _arg(i: int, key: str):
    return lambda a, k: k[key] if key in k else a[i]


def _shots(a, k):
    return {"shots": int(_arg(1, "shots")(a, k))}


def _qr_work(a, k):
    x = _arg(0, "a")(a, k)
    *batch, m, n = x.shape
    big, small = max(m, n), min(m, n)
    flops = (4 if x.dtype.kind == "c" else 1) * (4 * big * small**2 - 4 * small**3 / 3)
    matrices = math.prod(batch)
    return {"matrices": matrices, "gflop": matrices * flops * 1e-9}


#: (layer metric prefix, defining module, attribute path, work counter)
TARGETS = (
    ("distinguisher.run_collision_distinguisher", "prulab.distinguisher", "run_collision_distinguisher", None),
    ("distinguisher.HaarUrnOracle.draw", "prulab.distinguisher", "HaarUrnOracle.draw", _shots),
    ("distinguisher.PFCOracle.draw", "prulab.distinguisher", "PFCOracle.draw", _shots),
    ("distinguisher.blocked_collision_counts", "prulab.distinguisher", "blocked_collision_counts", None),
    ("ensembles.PolyaUrnSampler.draw", "prulab.ensembles", "PolyaUrnSampler.draw", _shots),
    ("ensembles.sample_pfc", "prulab.ensembles", "sample_pfc", None),
    ("stabilizer.sample_from_support", "prulab.stabilizer", "sample_from_support", _shots),
    ("stabilizer.random_clifford_rng", "prulab.stabilizer", "random_clifford_rng", None),
    ("stabilizer.measurement_support", "prulab.stabilizer", "measurement_support", None),
    ("tomography.naive_process_tomography", "prulab.tomography", "naive_process_tomography", None),
    ("tomography.ChannelOracle.apply", "prulab.tomography", "ChannelOracle.apply", None),
    ("numpy.linalg.qr", "numpy.linalg", "qr", _qr_work),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh", None),
    ("numpy.linalg.svd", "numpy.linalg", "svd", None),
    ("nets.cover_with_product", "prulab.nets", "cover_with_product",
     lambda a, k: {"pairs": len(_arg(1, "net")(a, k)) ** 2}),
    ("nets.min_diamond_distance", "prulab.nets", "min_diamond_distance", None),
    ("linalg.diamond_distance_batch", "prulab.linalg", "diamond_distance_batch",
     lambda a, k: {"rows": int(_arg(0, "ws")(a, k).shape[0])}),
    # one name for both entry points; the nested call is not counted twice
    ("linalg.haar_unitary", "prulab.linalg", "haar_unitary", None),
    ("linalg.haar_unitary", "prulab.linalg", "haar_unitary_rng", None),
)

_WORK_KEYS = {"distinguisher.HaarUrnOracle.draw": ("shots",),
              "distinguisher.PFCOracle.draw": ("shots",),
              "ensembles.PolyaUrnSampler.draw": ("shots",),
              "stabilizer.sample_from_support": ("shots",),
              "numpy.linalg.qr": ("matrices", "gflop"),
              "nets.cover_with_product": ("pairs",),
              "linalg.diamond_distance_batch": ("rows",)}

#: traced layers reported for the traced process's own input generation
SETUP_LAYERS = (("linalg.haar_unitary", ("calls", "self_s")),
                ("numpy.linalg.qr", ("calls", "matrices", "self_s")),
                ("nets.min_diamond_distance", ("calls", "self_s")))

_UNITS = {"calls": "count", "self_s": "s", "shots": "count", "matrices": "count",
          "gflop": "gflop", "pairs": "count", "rows": "count"}


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in dict.fromkeys(t[0] for t in TARGETS):
        for measure in ("calls", *_WORK_KEYS.get(name, ()), "self_s"):
            out.append((f"{name}.{measure}", _UNITS[measure]))
    for name, measures in SETUP_LAYERS:
        out += [(f"setup.{name}.{m}", _UNITS[m]) for m in measures]
    out += [("trace.overhead_frac", "fraction"), ("trace.unattributed_frac", "fraction")]
    return out


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self, extra_modules=()):
        self.spans: list = []
        self.unit = None
        self._stack: list = []
        self._patches: list = []
        self._extra = tuple(extra_modules)

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.unit, name, t0, t1,
                              work(args, kwargs) if work else None)

        traced.__wrapped__ = fn
        return traced

    def _binding_sites(self, defining, original):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "prulab" or n.startswith("prulab."))]
        for m in (defining, *modules, *self._extra):
            for key, value in list(vars(m).items()):
                if value is original:
                    yield m, key

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, modname, path, work in TARGETS:
            mod = importlib.import_module(modname)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(mod, owner_path)
                sites = [(owner, attr)]
            else:
                sites = list(dict.fromkeys(self._binding_sites(mod, getattr(mod, attr))))
            original = vars(sites[0][0])[sites[0][1]]
            wrapper = self._wrap(name, original, work)
            for owner, key in sites:
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def run_unit(self, unit_id, fn, arg):
        """Call ``fn(arg)`` inside a top-level unit span."""
        self.unit = unit_id
        return self._wrap(UNIT, fn, None)(arg)

    def per_unit(self) -> dict:
        """{unit id: {metric: value}} with calls, work counts and self time."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        stats: dict = defaultdict(lambda: defaultdict(float))
        for sid, _, unit, name, t0, t1, work in self.spans:
            u = stats[unit]
            u[f"{name}.calls"] += 1
            u[f"{name}.self_s"] += (t1 - t0) - child[sid]
            u[f"{name}.dur_s"] += t1 - t0
            for k, v in (work or {}).items():
                u[f"{name}.{k}"] += v
        return stats

    def write(self, path) -> None:
        """Gzipped JSON lines: a header, then one
        ``[id, parent, unit, name, t0_ns, t1_ns, work]`` row per span,
        times in nanoseconds from the first span's start."""
        base = self.spans[0][4] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"columns": ["id", "parent", "unit", "name", "t0_ns", "t1_ns", "work"]}) + "\n")
            for sid, parent, unit, name, t0, t1, work in self.spans:
                row = [sid, parent, unit, name, round((t0 - base) * 1e9), round((t1 - base) * 1e9), work]
                f.write(json.dumps(row) + "\n")
