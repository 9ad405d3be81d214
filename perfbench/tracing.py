"""Outside-in tracing of superconf's layers.

The benchmark wraps public functions of the engine's modules from here; no
file of the engine changes.  A wrapped function is replaced at every place a
caller can look it up: its own module, every other ``superconf`` module (and
the package namespace) that bound the same object with ``from .x import f``,
and, for methods, the class.  Call-time imports such as the one inside
``resolutions.minimal_free_resolution`` read the module attribute, so they see
the wrapper too.

Spans are kept in memory as ``[id, parent id, name, start, end, attrs]`` and
written out by the caller when the run ends.  Hot recursive methods get call
counters instead of spans, because a span per call would distort the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter


def _sparse_rank_attrs(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows), "rank": result}


# Spans: "module.function" or "module.Class.method" -> attribute extractor.
# Some are not reported as metrics (e.g. `multiplets.conf_module`); their spans
# keep the time they take out of their callers' self time.
SPANS = {
    "cli.main": None,
    "specfile.parse_spec": None,
    "algebras.derivations_deg0": None,
    "algebras.check_conformal_type": None,
    "multiplets.multiplet_module": None,
    "multiplets.conf_module": None,
    "multiplets.canonical_module": None,
    "multiplets.kaehler_module": None,
    "multiplets.hdim": None,
    "multiplets.component_fields": None,
    "twisting.twist": None,
    "twisting.twist_pipeline": None,
    "groebner.buchberger": lambda a, k, r: {"basis_out": len(r)},
    "groebner.ideal_gb": None,
    "groebner.schreyer_syzygies": lambda a, k, r: {"syzygies_out": len(r[0])},
    "groebner.syzygy_module": None,
    "groebner.hilbert_series": None,
    "groebner.krull_dim": None,
    "groebner.standard_monomials": None,
    "resolutions.minimal_free_resolution": lambda a, k, r: {"betti_total": r[1].total()},
    "resolutions.is_gorenstein": None,
    "resolutions.koszul_tor": None,
    "resolutions.syzygetic_defect": None,
    "resolutions.ce_cohomology": None,
    "resolutions.koszul_homology_dims": None,
    "resolutions.koszul_homology_is_zero": None,
    "linalg.sparse_rank": _sparse_rank_attrs,
    "linalg.sparse_kernel": None,
    "linalg.rref": None,
    "prolongation.tanaka_prolongation": None,
    "prolongation.ProlongationBrackets.check_jacobi": None,
    "prolongation.derivation_complex_h0": None,
}

# Call counters only: these run hundreds of thousands of times per pass.
COUNTERS = (
    "groebner.GroebnerBasis.normal_form",
    "linalg.SpanSolver.add",
    "linalg.SpanSolver.solve",
    "prolongation.ProlongationBrackets.bracket",
)


class Tracer:
    """Spans and counters of one traced pass, plus the patches that feed them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, target: str, make):
        modname, *path = target.split(".")
        module = importlib.import_module(f"superconf.{modname}")
        if len(path) == 2:
            cls = getattr(module, path[0])
            self._patch(cls, path[1], make(cls.__dict__[path[1]]))
            return
        orig = getattr(module, path[0])
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "superconf" and not name.startswith("superconf."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        for target, attrs in SPANS.items():
            self._wrap(target, lambda fn, t=target, a=attrs: self._span(t, fn, a))
        for target in COUNTERS:
            self._wrap(target, lambda fn, t=target: self._counter(t, fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def layer_stats(spans) -> dict[str, dict]:
    """Per span name: inclusive `s`, `self_s`, `calls`, `max_s` and summed attrs.

    `self_s` of a span is its duration minus the durations of its direct
    children (one thread, so children never overlap).  `s` counts a span only
    when no ancestor has the same name, so recursion is not counted twice.
    """
    by_id = {rec[0]: rec for rec in spans}
    child_time: Counter = Counter()
    for sid, parent, name, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    stats: dict[str, dict] = {}
    for sid, parent, name, t0, t1, attrs in spans:
        dur = t1 - t0
        st = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "max_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur - child_time[sid]
        st["max_s"] = max(st["max_s"], dur)
        up = parent
        while up is not None and by_id[up][2] != name:
            up = by_id[up][1]
        if up is None:
            st["s"] += dur
        for key, value in (attrs or {}).items():
            st[key] = st.get(key, 0) + value
    return stats


def root_time(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(t1 - t0 for _, parent, _, t0, t1, _ in spans if parent is None)
