"""Span tracing of spinmoments layers, installed from outside the package.

Each wrapped function is replaced at every module attribute that refers to
it, so names imported with ``from .states import dense_vector`` are traced
too.  Spans stay in memory as parallel lists and are handed over when the
run ends; ``aggregate`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer -> traced public functions.  Layers are the package modules.
LAYER_FUNCTIONS = {
    "spin_algebra": ("cj_bound", "compute_cj", "build_spin_matrices"),
    "states": ("make_state", "dense_vector"),
    "analytic": ("log_lhs_rhs", "lhs_rhs", "b_ratio", "b_bell", "b_ent_cj", "b_ent_hz", "b_steer_t"),
    "oracle": ("expect_product", "lhs_moment", "rhs_moment"),
    "criteria": ("evaluate", "nested_verdicts"),
    "optimizer": ("optimize_amplitudes", "min_sites_for_violation", "scan_curve"),
    "cli": ("main",),
}

COMPLEX_BYTES = 16  # one complex128 amplitude


def _count_oracle_work(counters, args, kwargs, result):
    vec = args[0] if args else kwargs["state_vector"]
    ops = args[1] if len(args) > 1 else kwargs["ops"]
    sites = sum(op.value != "identity" for op in ops)
    counters["oracle.amp_site_ops"] += vec.size * sites


def _count_dense_amplitudes(counters, args, kwargs, result):
    counters["states.dense_amplitudes"] += result.size


def _record_cj(counters, args, kwargs, result):
    counters[f"cj.{result.j.twice_j}"] = result.c_j


PROBES = {
    "oracle.expect_product": _count_oracle_work,
    "states.dense_vector": _count_dense_amplitudes,
    "spin_algebra.cj_bound": _record_cj,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.counters: dict[str, float] = Counter()
        self._stack: list[int] = []
        self.patched: dict[str, list[str]] = {}

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        clock = time.perf_counter
        fid, parent, t0, t1, stack = self.fid, self.parent, self.t0, self.t1, self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(fid)
            fid.append(index)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(span)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[span] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever spinmoments refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "spinmoments" or n.startswith("spinmoments.")]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"spinmoments.{layer}"]
            for func in functions:
                original = getattr(home, func)
                wrapper = self.wrap(f"{layer}.{func}", original)
                sites = []
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            sites.append(f"{module.__name__}.{attr}")
                self.patched[f"{layer}.{func}"] = sites

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fid": self.fid,
            "parent": self.parent,
            "t0": self.t0,
            "t1": self.t1,
            "counters": dict(self.counters),
            "patched": self.patched,
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[k]


def aggregate(trace: dict) -> dict[str, float]:
    """Per-function and per-layer figures from one traced child's spans.

    busy_s sums a function's outermost spans; self_s subtracts the time its
    direct child spans cover.  The counters are computed from call
    arguments and results, not timed.
    """
    names, fid, parent, t0, t1 = (trace[k] for k in ("names", "fid", "parent", "t0", "t1"))
    dur = [b - a for a, b in zip(t0, t1)]
    children_time = [0.0] * len(fid)
    for span, up in enumerate(parent):
        if up >= 0:
            children_time[up] += dur[span]

    calls = Counter()
    busy = defaultdict(float)
    self_time = defaultdict(float)
    durations = defaultdict(list)
    for span, f in enumerate(fid):
        calls[f] += 1
        self_time[f] += dur[span] - children_time[span]
        durations[f].append(dur[span])
        up = parent[span]
        while up >= 0 and fid[up] != f:
            up = parent[up]
        if up < 0:
            busy[f] += dur[span]

    out: dict[str, float] = {}
    layer_self = defaultdict(float)
    for f, name in enumerate(names):
        ds = sorted(durations[f])
        out[f"{name}.calls"] = calls[f]
        out[f"{name}.busy_s"] = busy[f]
        out[f"{name}.self_s"] = self_time[f]
        out[f"{name}.call_p50_us"] = _percentile(ds, 0.5) * 1e6
        out[f"{name}.call_p99_us"] = _percentile(ds, 0.99) * 1e6
        layer_self[name.split(".")[0]] += self_time[f]
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds

    main = names.index("cli.main")
    opt = names.index("optimizer.optimize_amplitudes")
    objective = names.index("analytic.b_ratio")
    objective_calls = sum(
        1 for span, f in enumerate(fid) if f == objective and parent[span] >= 0 and fid[parent[span]] == opt
    )
    out["optimizer.objective_calls_per_opt"] = objective_calls / calls[opt] if calls[opt] else 0.0
    top = [span for span, up in enumerate(parent) if up >= 0 and fid[up] == main]
    out["trace.top_level_s"] = sum(dur[s] for s in top)

    counters = trace["counters"]
    ops = counters.get("oracle.amp_site_ops", 0)
    out["oracle.amp_site_ops"] = ops
    out["oracle.bytes_computed"] = ops * COMPLEX_BYTES
    out["states.dense_amplitudes"] = counters.get("states.dense_amplitudes", 0)
    return out


def median_metrics(per_child: list[dict[str, float]]) -> dict[str, float]:
    keys = per_child[0].keys()
    return {k: statistics.median(m[k] for m in per_child) for k in keys}
