"""Layer spans recorded from outside the program.

``Recorder.install()`` replaces each public function named in ``LAYERS``
by a wrapper, in every ``g2satake`` module that holds a binding to it
(``from .qpoly import poly_gcd`` copies the name into ``fibrations``, so
both bindings are patched; ``roots`` reaches ``_kernels.aberth`` through
the module attribute, which is patched too).  Nothing under ``src/`` is
changed.  A span is ``[name, start, end, parent, job, info]``: ``parent``
is the index of the enclosing span (-1 at top level), ``job`` the job id
set by the caller, and ``info`` a number read from the return value.
Spans stay in memory until they are written with ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import jobs

# metric prefix -> g2satake module
MODULES = {"cli": "cli", "igusa": "igusa", "qpoly": "qpoly", "satake": "satake",
           "fibrations": "fibrations", "roots": "roots", "theta": "theta",
           "kernels": "_kernels"}

LAYERS = (
    "cli.run",
    "igusa.igusa_from_rosenhain", "igusa.igusa_from_sextic", "igusa.q_form",
    "igusa.absolute_invariants", "igusa.siegel_from_igusa",
    "qpoly.resultant", "qpoly.discriminant", "qpoly.poly_gcd",
    "qpoly.squarefree_decomposition",
    "satake.phi_map", "satake.satake_sextic", "satake.power_sums_from_igusa",
    "satake.reconstruct_from_satake_roots",
    "satake.theta_power_sum_consistency",
    "fibrations.classify_fibers",
    "roots.gaussian_roots", "roots.complex_roots",
    "theta.even_theta_constants", "theta.check_frobenius",
    "theta.rosenhain_from_theta",
    "kernels.theta_sum", "kernels.theta_shell", "kernels.aberth",
)

# layers whose self time is also split by the height of the job's input
HEIGHT_SPLIT = (
    "qpoly.discriminant", "qpoly.resultant", "qpoly.poly_gcd",
    "qpoly.squarefree_decomposition", "igusa.q_form", "igusa.igusa_from_sextic",
    "satake.phi_map", "fibrations.classify_fibers",
)
HEIGHTS = tuple(f"h{d}" for d in jobs.HEIGHTS)


def _bits(v):
    if hasattr(v, "coeffs"):
        return max((_bits(c) for c in v.coeffs), default=0)
    if hasattr(v, "denominator"):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return 0


def _perm_rank(perm):
    """Position of ``perm`` in lexicographic order (itertools order)."""
    rest = sorted(perm)
    rank = 0
    for i, p in enumerate(perm):
        k = rest.index(p)
        rank = rank * (len(perm) - i) + k
        rest.pop(k)
    return rank


# what a span records from a return value
INFO = {
    "qpoly.resultant": _bits,
    "qpoly.discriminant": _bits,
    "qpoly.poly_gcd": _bits,
    "satake.reconstruct_from_satake_roots": lambda r: _perm_rank(r[1]) + 1,
    "kernels.aberth": lambda r: int(r[1]),
    "theta.even_theta_constants": lambda tc: [tc.radius, float(tc.max_tail)],
    "fibrations.classify_fibers": lambda census: census.euler_sum,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1

    def install(self):
        package = [m for name, m in list(sys.modules.items())
                   if name == "g2satake" or name.startswith("g2satake.")]
        for layer in LAYERS:
            prefix, fn_name = layer.rsplit(".", 1)
            module = importlib.import_module("g2satake." + MODULES[prefix])
            original = getattr(module, fn_name)
            wrapper = self._wrap(layer, original)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[5] = info(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

def dump(spans, path):
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans, job_height):
    """Per-layer metrics from a list of spans (see BENCHMARK.json).

    ``job_height`` maps a job id to its height tag, which splits the self
    time of the HEIGHT_SPLIT layers into ``.self_ms.hN``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    by_height = {(layer, h): 0.0 for layer in HEIGHT_SPLIT for h in HEIGHTS}
    infos = {name: [] for name in INFO}
    for i, (name, start, end, parent, job, info) in enumerate(spans):
        own = (end - start - child[i]) * 1e3
        self_ms[name] += own
        calls[name] += 1
        key = (name, job_height.get(job))
        if key in by_height:
            by_height[key] += own
        if info is not None:
            infos[name].append(info)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_ms[layer], "ms")
        out[f"{layer}.calls"] = (calls[layer], "count")
    for (layer, h), v in by_height.items():
        out[f"{layer}.self_ms.{h}"] = (v, "ms")
    bits = (infos["qpoly.resultant"] + infos["qpoly.discriminant"]
            + infos["qpoly.poly_gcd"])
    tried = infos["satake.reconstruct_from_satake_roots"]
    theta = infos["theta.even_theta_constants"]
    eulers = infos["fibrations.classify_fibers"]
    out["qpoly.max_bits"] = (max(bits, default=0), "bits")
    out["satake.reconstruct.orderings_tried"] = (sum(tried), "count")
    out["satake.reconstruct.useful_ratio"] = (
        len(tried) / sum(tried) if tried else 0.0, "ratio")
    out["kernels.aberth.sweeps"] = (sum(infos["kernels.aberth"]), "count")
    out["kernels.theta.lattice_points"] = (
        sum(10 * (2 * r + 1) ** 2 for r, _ in theta), "count")
    out["theta.max_tail"] = (max((t for _, t in theta), default=0.0), "abs")
    out["theta.radius"] = (
        statistics.fmean(r for r, _ in theta) if theta else 0.0, "points")
    out["fibrations.euler_ok_ratio"] = (
        sum(e == 24 for e in eulers) / len(eulers) if eulers else 0.0, "ratio")
    return out
