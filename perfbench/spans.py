"""Span tracer for one traced workload process.

It wraps the public entry points of each pairdeploy layer by name, from
outside the program: the program's files are never edited.  A name that no
longer exists is skipped, so a later rename costs that layer its numbers and
never breaks the end-to-end run.  Spans (name, start, end, parent) stay in
memory until `write`, which stores them with each layer's self time and
returns the per-layer metrics of this process.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "montecarlo", "sampling", "graphs", "theory")


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _sampling_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return [a["seed"], a["first_trial"], a["n_trials"], a["n"], a["k"]]


def _connected_info(fn, args, kwargs, result):
    return bool(result)


def _union_bound_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m = int(Fraction(str(a["gamma"])) * a["n"])
    return m // 2


class Tracer:
    """Records a span around every call of the wrapped functions."""

    def __init__(self) -> None:
        # each span: [name, layer, start_ns, end_ns, parent index, info]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                try:
                    span[5] = info(fn, args, kwargs, result)
                except (TypeError, KeyError, ValueError):
                    pass  # the signature changed: keep the span, lose the counter
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point that exists, wherever it is bound."""
        package = {n: m for n, m in sys.modules.items() if n.startswith("pairdeploy.") and m}
        montecarlo = package.get("pairdeploy.montecarlo")
        theory = package.get("pairdeploy.theory")
        targets = [  # (layer, attribute of pairdeploy.<layer>, counter)
            ("sampling", "sample_pairing_block", _sampling_info),
            ("graphs", "connected_at", _connected_info),
            ("graphs", "isolated_count_at", None),
        ]
        targets += [("montecarlo", a, None) for a in dir(montecarlo) if montecarlo and a.startswith("run_")]
        targets += [
            ("theory", a, _union_bound_info if a == "connectivity_union_bound" else None)
            for a, obj in (vars(theory).items() if theory else ())
            if not a.startswith("_") and inspect.isfunction(obj) and obj.__module__ == theory.__name__
        ]
        for layer, attr, info in targets:
            original = getattr(package.get(f"pairdeploy.{layer}"), attr, None)
            if not callable(original):
                continue
            wrapped = self.wrap(layer, f"{layer}.{attr}", original, info)
            for mod in package.values():  # covers `from .graphs import connected_at`
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def layer_metrics(self, wall_s: float) -> tuple[dict, list[float]]:
        """Per-layer metrics of the recorded spans, plus each span's self time."""
        spans = self.spans
        dur = [(s[3] - s[2]) / 1e9 for s in spans]
        self_s = list(dur)
        for s, d in zip(spans, dur):
            if s[4] >= 0:
                self_s[s[4]] -= d
        outer = [s[4] < 0 or spans[s[4]][1] != s[1] for s in spans]

        def outer_total(pick) -> float:
            return float(sum(d for s, d, o in zip(spans, dur, outer) if o and pick(s)))

        def count(pick) -> int:
            return sum(1 for s, o in zip(spans, outer) if o and pick(s))

        blocks = [s[5] for s in spans if s[0] == "sampling.sample_pairing_block" and s[5]]
        tables = sum(b[2] for b in blocks)
        draws = sum(b[2] * b[3] * b[4] for b in blocks)
        distinct = {
            (seed, n, k, t) for seed, first, cnt, n, k in blocks for t in range(first, first + cnt)
        }
        conn, iso, union = (
            (lambda s, name=name: s[0] == name)
            for name in ("graphs.connected_at", "graphs.isolated_count_at", "theory.connectivity_union_bound")
        )
        layer_self = {layer: float(sum(x for s, x in zip(spans, self_s) if s[1] == layer)) for layer in LAYERS}
        metrics = {
            "cli.self_s": layer_self["cli"],
            "montecarlo.self_s": layer_self["montecarlo"],
            "montecarlo.tables_per_needed": tables / len(distinct) if distinct else 0.0,
            "sampling.busy_s": outer_total(lambda s: s[1] == "sampling"),
            "sampling.tables": tables,
            "sampling.draws": draws,
            "sampling.out_mb": 8 * draws / 1e6,
            "graphs.connectivity_busy_s": outer_total(conn),
            "graphs.connectivity_calls": count(conn),
            "graphs.connected_views": sum(1 for s in spans if conn(s) and s[5]),
            "graphs.isolation_busy_s": outer_total(iso),
            "graphs.isolation_calls": count(iso),
            "theory.busy_s": outer_total(lambda s: s[1] == "theory"),
            "theory.calls": count(lambda s: s[1] == "theory"),
            "theory.union_bound_s": outer_total(union),
            "theory.union_bound_terms": sum(s[5] or 0 for s in spans if union(s)),
            "trace.unattributed_s": wall_s - sum(layer_self.values()),
        }
        return metrics, self_s

    def write(self, path: str, origin: float, wall_s: float) -> dict:
        """Store the spans and layer self times at `path`; return the metrics."""
        metrics, self_s = self.layer_metrics(wall_s)
        base = int(origin * 1e9)
        doc = {
            "wall_s": wall_s,
            "metrics": metrics,
            "fields": ["name", "start_s", "end_s", "parent", "self_s"],
            "spans": [
                [s[0], (s[2] - base) / 1e9, (s[3] - base) / 1e9, s[4], round(x, 9)]
                for s, x in zip(self.spans, self_s)
            ],
        }
        with open(path, "w") as fp:
            json.dump(doc, fp, separators=(",", ":"))
        return metrics
