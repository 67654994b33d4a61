"""Span tracing for the traced run, from outside the package.

`instrumented(tracer)` wraps every public function of each wigg2 module
in LAYERS and re-binds every name that refers to one, including names a
module imported from another (`counting.photon_number_distribution`,
`tomography.simulate_hbt`, `tomography.g2_gaussian`, the package's
re-exports).  Each call then records a span: name, layer, start, end,
parent span and op id.  A few wrappers also record counts at the same
boundary (PROBES).  Spans stay in memory until the run writes them out.

Self time: a span's `self` is its duration minus its direct children's.
A function's layer self time (`<fn>.self_s`) also counts the self time
of spans of the same layer nested inside it, so that
`counting.simulate_hbt.self_s` covers simulate_hbt_from_distribution and
`cli.main.self_s` covers cmd_sweep, but neither covers fock or kernels.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("states", "moments", "fock", "kernels", "counting", "tomography",
          "loss", "cli")
ROOT = "bench.op"


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    op: int
    start: float
    end: float = math.nan
    info: dict = field(default_factory=dict)


def _boot_moments(a, result):
    resamples = len(a["x"]) * int(a["n_boot"])
    return {"resamples": resamples, "gather_bytes": 8 * resamples}


def _hbt_counts(a, result):
    return {"windows": int(a["stop"]) - int(a["start"])}


def _pn(a, result):
    finite = all(math.isfinite(p) for p in result.probs) and math.isfinite(result.tail_mass)
    return {"tail_mass": float(result.tail_mass), "nonfinite": int(not finite)}


def _g2_rec(a, result):
    return {"guarded": result.n_guarded, "members": len(a["rec"].bootstrap_states)}


def _loss(a, result):
    return {"skipped": result[2],
            "draws": min(len(a["g2_draws"]), len(a["vx_draws"]))}


def _hbt(a, result):
    return {"hbt": (a["state"], a["config"], result)}


# counts recorded at a function's boundary: (bound arguments, result) -> info
PROBES = {
    "kernels.boot_moments": _boot_moments,
    "kernels.hbt_counts": _hbt_counts,
    "fock.photon_number_distribution": _pn,
    "tomography.g2_from_reconstruction": _g2_rec,
    "loss.infer_loss_resampled": _loss,
    "counting.simulate_hbt": _hbt,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, layer: str, op: int | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = self.spans[parent].op if parent is not None else -1
        self.spans.append(Span(name, layer, parent, op, time.perf_counter()))
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op: its self time is the benchmark's glue."""
        idx = self._open(ROOT, "bench", op_id)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].info = probe(bound.arguments, result)
            return result

        return traced

    def write(self, path):
        """One JSON line per span; objects a probe kept are left out."""
        with open(path, "w") as fh:
            for s in self.spans:
                info = {k: v for k, v in s.info.items() if k != "hbt"}
                fh.write(json.dumps([s.name, s.parent, s.op, s.start, s.end, info]) + "\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers on wigg2 for the duration."""
    import wigg2

    modules = {layer: importlib.import_module(f"wigg2.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = tracer.wrap(layer, obj)
    patched = []
    for mod in (wigg2, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    try:
        yield
    finally:
        for mod, name, obj in patched:
            setattr(mod, name, obj)


def summarize(spans: list[Span]) -> dict:
    """Per-op sums over the traced ops, keyed by metric stem, plus the
    number of ops under "ops"."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    dur = [s.end - s.start for s in spans]
    direct = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
    layer_self = direct[:]
    for i in reversed(range(len(spans))):
        layer_self[i] += sum(layer_self[c] for c in children[i]
                             if spans[c].layer == spans[i].layer)

    tot = defaultdict(float)
    tot["tail_mass.max"] = 0.0
    hbt = []
    for i, s in enumerate(spans):
        if s.name == ROOT:
            tot["ops"] += 1
            tot["op_s"] += dur[i]
            tot["glue_s"] += direct[i]
            continue
        parent_layer = spans[s.parent].layer if s.parent is not None else None
        tot[f"{s.name}.calls"] += 1
        tot[f"{s.name}.s"] += dur[i]
        tot[f"{s.name}.self_s"] += layer_self[i]
        tot[f"{s.layer}.calls"] += 1
        tot[f"{s.layer}.self_s"] += direct[i]
        if parent_layer != s.layer:
            tot[f"{s.layer}.s"] += dur[i]
        for k, v in s.info.items():
            if k == "hbt":
                hbt.append(v)
            elif k == "tail_mass":
                tot["tail_mass.max"] = max(tot["tail_mass.max"], v)
            else:
                tot[k] += v
    tot["hbt"] = hbt
    return tot
