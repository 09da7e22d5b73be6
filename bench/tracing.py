"""Outside-in tracing of the library's layers, for traced passes only.

`Tracer.install` replaces module attributes that callers inside the library
look up at call time (`chang.smash.check_decomposition`,
`chang.verify.mod2_cohomology`, ...) with wrappers that record a span per
call: layer, parent span, start and end.  No file of the library changes,
and an untraced pass never imports this module.  A layer's self time is the
duration of its spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute the library looks up) -> layer metric.  Each wrapped
# attribute is the name a caller resolves at call time, so the wrapper sees
# exactly the calls that cross into the layer from that caller.
TARGETS = {
    # the bench's own entry on grid/wide, and parser.lower's smash nodes
    ("chang.smash", "smash_decompose"): "smash.self_us",
    ("chang.cli", "smash_decompose"): "smash.self_us",
    ("chang.smash", "check_decomposition"): "verify.check_self_us",
    ("chang.cli", "check_decomposition"): "verify.check_self_us",
    ("chang.verify", "mod2_cohomology"): "steenrod.module_us",
    ("chang.verify", "cartan_smash_sq"): "steenrod.cartan_us",
    ("chang.verify", "sq_module_compare"): "verify.sq_compare_us",
    ("chang.verify", "kunneth"): "homology.us",
    ("chang.verify", "integral_homology"): "homology.us",
    ("chang.verify", "moore_split_obstruction"): "verify.obstruction_us",
    ("chang.smash", "dual"): "complexes.us",
    ("chang.smash", "suspend"): "complexes.us",
    ("chang.smash", "wedge"): "complexes.us",
    # cli only; the two *_of_expression walks build their answer from the
    # homology and Sq-module layers without going through verify
    ("chang.cli", "main"): "cli.dispatch_us",
    ("chang.cli", "parse_expression"): "parser.us",
    ("chang.cli", "lower"): "parser.us",
    ("chang.cli", "homology_of_expression"): "homology.us",
    ("chang.cli", "sqmodule_of_expression"): "steenrod.module_us",
    ("chang.cli", "dual"): "complexes.us",
    ("chang.cli", "hom_group"): "homgroups.lookup_us",
    ("chang.cli", "wedge_hom_order"): "homgroups.lookup_us",
    ("chang.cli", "matrix_from_json"): "matrix.load_us",
    ("chang.cli", "steps_from_json"): "matrix.load_us",
    ("chang.cli", "run_script"): "matrix.replay_us",
    ("chang.cli", "split_cone"): "matrix.split_cone_us",
}

TIMED = sorted(set(TARGETS.values()))
COUNTS = ("sqmodule_builds", "iso_found", "iso_skipped", "iso_false",
          "iso_attempts", "branches", "dual_calls", "homgroup_calls")


class Tracer:
    """Span stack and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []     # [parent, layer, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target whose module is already imported."""
        for (mod_name, attr), layer in TARGETS.items():
            mod = sys.modules.get(mod_name)
            if mod is not None:
                setattr(mod, attr, self._wrap(layer, attr, getattr(mod, attr)))
        steenrod = sys.modules["chang.steenrod"]
        init = steenrod.SqModule.__init__
        counts = self.counts

        def counted_init(module, *args, **kwargs):
            counts["sqmodule_builds"] += 1
            init(module, *args, **kwargs)
        steenrod.SqModule.__init__ = counted_init

    def _wrap(self, layer: str, attr: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        observe = _OBSERVERS.get(attr)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([stack[-1] if stack else -1, layer, clock(), 0.0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            if observe:
                observe(counts, result)
            return result
        return traced

    def summary(self) -> dict:
        """Self seconds per layer and the counters."""
        child = [0.0] * len(self.spans)
        for parent, _layer, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(TIMED, 0.0)
        for (_parent, layer, start, end), c in zip(self.spans, child):
            self_s[layer] += end - start - c
        return {"self_s": self_s,
                "counts": {k: self.counts[k] for k in COUNTS}}


def _iso(counts, result) -> None:
    invariants_ok, iso = result
    counts["iso_attempts"] += 1
    if iso is True:
        counts["iso_found"] += 1
    elif iso == "skipped":
        counts["iso_skipped"] += 1
    elif iso is False or not invariants_ok:
        counts["iso_false"] += 1


def _branches(counts, result) -> None:
    counts["branches"] += len(result.branches)


def _count(name):
    def observe(counts, _result):
        counts[name] += 1
    return observe


_OBSERVERS = {"sq_module_compare": _iso, "smash_decompose": _branches,
              "dual": _count("dual_calls"), "hom_group": _count("homgroup_calls"),
              "wedge_hom_order": _count("homgroup_calls")}


def merge(total: dict | None, part: dict) -> dict:
    """Sum two summaries."""
    if total is None:
        return {"self_s": dict(part["self_s"]), "counts": dict(part["counts"])}
    for key in ("self_s", "counts"):
        for k, v in part[key].items():
            total[key][k] = total[key].get(k, 0) + v
    return total
