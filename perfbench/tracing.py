"""Spans around geninv's module-level functions, installed from outside.

`Tracer.install` replaces every module-level function of every loaded
geninv module with a timing wrapper, in each namespace that holds it, so
names brought in with `from .x import f` are counted too. It also wraps
`WeightedPair.from_matrices`, counts `GaussianRational` multiplications,
and wraps `numpy.linalg.svd` and `scipy.linalg.qr`, counting them only
while a geninv span is open so the benchmark's own checks stay out.

Per name it keeps calls, inclusive time (outermost activation only) and
self time (duration minus the time covered by child spans). Spans live in
memory; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy.linalg
import scipy.linalg

from geninv.exact import GaussianRational
from geninv.weighted import WeightedPair

# Per-entry helpers called once per matrix entry or scalar operation; a
# span on each would cost more than the work it measures.
SCALAR_HELPERS = {
    "exact._coerce",
    "io._split_complex", "io._fraction", "io._parse_token", "io.parse_entry",
    "io._json_component", "io._json_entry", "io._g17", "io.format_complex",
    "io._json_value",
}

# Float functions that return an inverse; the outermost call of one counts
# as one inverse returned, the base of matrix.svd_per_inverse.
INVERSES = {
    "projectors.pinv", "classical.drazin", "classical.group_inverse",
    "classical.core_inverse", "classical.core_ep", "classical.bt_inverse",
    "classical.qbt_inverse", "weighted.weighted_qbt", "weighted.weighted_bt",
    "weighted.weighted_core_ep", "weighted.weighted_drazin",
    "decomposition.canonical_qbt", "decomposition.canonical_weighted_qbt",
}


def _svd_work(args, kwargs, result) -> dict:
    m, n = args[0].shape[-2:]
    return {"svd_work": m * n * min(m, n)}


def _parse_bytes(args, kwargs, result) -> dict:
    return {"parse_bytes": len(args[0].encode())}


def _format_bytes(args, kwargs, result) -> dict:
    return {"format_bytes": len(result.encode())}


HOOKS = {"lapack.svd": _svd_work, "io.parse_matrix": _parse_bytes,
         "io.format_matrix": _format_bytes}


class Tracer:
    """Call counts, inclusive and self times of traced functions."""

    def __init__(self):
        self.calls = Counter()
        self.incl = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()

    def _wrap(self, name, fn, lapack=False):
        stack, depth = self._stack, self._depth
        calls, incl, self_time, counts = self.calls, self.incl, self.self_time, self.counts
        hook = HOOKS.get(name)
        inverse = name in INVERSES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if lapack and not stack:
                return fn(*args, **kwargs)
            if inverse and not depth["inverse"]:
                counts["inverses"] += 1
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            depth["inverse"] += inverse
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                depth["inverse"] -= inverse
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_time[name] += dt - child[0]
                if not depth[name]:
                    incl[name] += dt
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the functions of every geninv module loaded so far."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "geninv" or name.startswith("geninv."))}
        wrapped = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == modname
                        and name not in SCALAR_HELPERS):
                    wrapped[id(value)] = self._wrap(name, value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

        original = WeightedPair.__dict__["from_matrices"].__func__
        WeightedPair.from_matrices = classmethod(self._wrap("weighted.from_matrices", original))
        mul = GaussianRational.__mul__
        counts = self.counts

        def counted_mul(a, b):
            counts["gr_mul"] += 1
            return mul(a, b)

        GaussianRational.__mul__ = GaussianRational.__rmul__ = counted_mul
        numpy.linalg.svd = self._wrap("lapack.svd", numpy.linalg.svd, lapack=True)
        scipy.linalg.qr = self._wrap("lapack.qr", scipy.linalg.qr, lapack=True)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "incl": self.incl, "self_time": self.self_time,
                "counts": self.counts}

    def merge(self, data: dict) -> None:
        """Add the spans of another process (a traced CLI call)."""
        for key in ("calls", "incl", "self_time", "counts"):
            getattr(self, key).update(data[key])


def layer_metrics(t: Tracer, import_s: float, overhead_s: float) -> dict:
    """The per-layer metrics, {name: (value, unit)}."""
    calls, incl = t.calls, t.incl
    inverses = t.counts["inverses"]
    svd_calls = calls["lapack.svd"]

    def self_of(module: str) -> float:
        return sum(v for k, v in t.self_time.items() if k.startswith(module + "."))

    return {
        "matrix.svd_calls": (svd_calls, "count"),
        "matrix.svd_s": (incl["lapack.svd"], "s"),
        "matrix.svd_work": (t.counts["svd_work"], "flop-units"),
        "matrix.svd_per_inverse": (svd_calls / inverses if inverses else 0.0, "ratio"),
        "matrix.inverses": (inverses, "count"),
        "matrix.qr_calls": (calls["lapack.qr"], "count"),
        "matrix.qr_s": (incl["lapack.qr"], "s"),
        "matrix.rank_calls": (calls["matrix.rank"], "count"),
        "matrix.sigma_max_calls": (calls["matrix.sigma_max"], "count"),
        "matrix.as_matrix_calls": (calls["matrix.as_matrix"], "count"),
        "matrix.as_matrix_s": (incl["matrix.as_matrix"], "s"),
        "projectors.pinv_calls": (calls["projectors.pinv"], "count"),
        "projectors.pinv_s": (incl["projectors.pinv"], "s"),
        "projectors.proj_range_calls": (calls["projectors.proj_range"], "count"),
        "projectors.matrix_index_calls": (calls["projectors.matrix_index"], "count"),
        "projectors.matrix_index_s": (incl["projectors.matrix_index"], "s"),
        "classical.qbt_inverse_s": (incl["classical.qbt_inverse"], "s"),
        "classical.core_ep_s": (incl["classical.core_ep"], "s"),
        "classical.drazin_s": (incl["classical.drazin"], "s"),
        "weighted.from_matrices_s": (incl["weighted.from_matrices"], "s"),
        "weighted.weighted_qbt_calls": (calls["weighted.weighted_qbt"], "count"),
        "weighted.weighted_qbt_s": (incl["weighted.weighted_qbt"], "s"),
        "decomposition.core_ep_decompose_s": (incl["decomposition.core_ep_decompose"], "s"),
        "decomposition.weighted_core_ep_decompose_s":
            (incl["decomposition.weighted_core_ep_decompose"], "s"),
        "decomposition.canonical_qbt_s": (incl["decomposition.canonical_qbt"], "s"),
        "decomposition.canonical_weighted_qbt_s":
            (incl["decomposition.canonical_weighted_qbt"], "s"),
        "exact.matmul_calls": (calls["exact._matmul"], "count"),
        "exact.matmul_s": (incl["exact._matmul"], "s"),
        "exact.rref_calls": (calls["exact._rref"], "count"),
        "exact.rref_s": (incl["exact._rref"], "s"),
        "exact.pinv_s": (incl["exact.exact_pinv"], "s"),
        "exact.index_s": (incl["exact.exact_index"], "s"),
        "exact.gr_mul_calls": (t.counts["gr_mul"], "count"),
        "io.parse_s": (incl["io.parse_matrix"], "s"),
        "io.parse_bytes": (t.counts["parse_bytes"], "bytes"),
        "io.format_s": (incl["io.format_matrix"], "s"),
        "io.format_bytes": (t.counts["format_bytes"], "bytes"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_of("cli"), "s"),
        "verify.self_s": (self_of("verify"), "s"),
        "corpus.random_pairs_s": (incl["corpus.random_pairs"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
