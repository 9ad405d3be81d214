"""Machine-readable fixtures distilled from the published tables.

Each case carries its citation and exact expected values; `verify` replays
them against the engine.  Component-field cells store the per-bundle
dimension multisets as printed, and the engine's cell totals are compared
against their sums (bundle names are representation labels, not something
the exact-arithmetic engine re-derives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .algebras import build_standard
from .groebner import hilbert_series, ideal_gb
from .multiplets import (
    MultipletTable,
    canonical_module,
    component_fields,
    conf_module,
    hdim,
    universal_checks,
)
from .prolongation import tanaka_prolongation
from .resolutions import is_gorenstein, koszul_tor, low_betti, minimal_free_resolution
from .rings import GradedRing
from .twisting import catalog_twist_vector, twist


@dataclass(frozen=True)
class FixtureCase:
    name: str
    algebra: tuple  # (dimension, susy specifier)
    kind: str
    expected: Any
    tier: str  # "fast" | "slow"
    citation: str
    options: dict = field(default_factory=dict)


@dataclass
class FixtureOutcome:
    name: str
    passed: bool
    expected: Any
    got: Any
    citation: str
    tier: str
    # the component table a conf_table case built, for callers that reuse it
    table: MultipletTable | None = field(default=None, repr=False, compare=False)


def sorted_rows(table: dict) -> list:
    """{(a, b): v} as rows [a, b, v] in key order: the Betti and component-field
    rows of the fixtures and of the CLI's --json."""
    return [[*k, v] for k, v in sorted(table.items())]


FIXTURES: list[FixtureCase] = [
    # --- homological dimension, structure-sheaf table rows -----------------
    FixtureCase("hdim-3d-n1", (3, 1), "hdim", 1, "fast",
                'structure-sheaf table, row "3d N=1"'),
    FixtureCase("hdim-4d-n1", (4, 1), "hdim", 2, "fast",
                'structure-sheaf table, row "4d N=1"'),
    FixtureCase("hdim-4d-n2", (4, 2), "hdim", 1, "fast",
                'structure-sheaf table, row "4d N=2"'),
    FixtureCase("hdim-6d-n10", (6, (1, 0)), "hdim", 3, "fast",
                'structure-sheaf table, row "6d N=(1,0)"'),
    FixtureCase("hdim-4d-n4", (4, 4), "hdim", 0, "fast",
                'structure-sheaf table, row "4d N=4"'),
    FixtureCase("hdim-6d-n20", (6, (2, 0)), "hdim", 1, "fast",
                'structure-sheaf table, row "6d N=(2,0)"'),
    FixtureCase("hdim-10d-n10", (10, (1, 0)), "hdim", 5, "fast",
                'structure-sheaf table, row "10d N=(1,0)"'),
    FixtureCase("hdim-10d-n20", (10, (2, 0)), "hdim", 1, "slow",
                'structure-sheaf table, row "10d N=(2,0)"'),
    FixtureCase("hdim-11d", (11, 1), "hdim", 2, "slow",
                'structure-sheaf table, row "11d N=1"'),
    # --- Calabi-Yau / Gorenstein column ------------------------------------
    FixtureCase("gorenstein-3d-n1", (3, 1), "gorenstein", False, "fast",
                "structure-sheaf table, CY column empty for 3d N=1"),
    FixtureCase("gorenstein-4d-n1", (4, 1), "gorenstein", False, "fast",
                "structure-sheaf table, CY column empty for 4d N=1"),
    FixtureCase("gorenstein-4d-n2", (4, 2), "gorenstein", False, "fast",
                "structure-sheaf table, CY column empty for 4d N=2"),
    FixtureCase("gorenstein-6d-n10", (6, (1, 0)), "gorenstein", False, "fast",
                "structure-sheaf table, CY column empty for 6d N=(1,0)"),
    FixtureCase("gorenstein-4d-n4", (4, 4), "gorenstein", True, "fast",
                "structure-sheaf table, CY checkmark for 4d N=4"),
    FixtureCase("gorenstein-6d-n20", (6, (2, 0)), "gorenstein", False, "fast",
                "structure-sheaf table, CY column empty for 6d N=(2,0)"),
    FixtureCase("gorenstein-10d-n10", (10, (1, 0)), "gorenstein", True, "fast",
                "structure-sheaf table, CY checkmark for 10d N=(1,0)"),
    FixtureCase("gorenstein-10d-n20", (10, (2, 0)), "gorenstein", False, "slow",
                "structure-sheaf table, CY column empty for 10d N=(2,0)"),
    FixtureCase("gorenstein-11d", (11, 1), "gorenstein", True, "slow",
                "structure-sheaf table, CY checkmark for 11d N=1"),
    # --- minimal 3d example: Betti fixtures --------------------------------
    FixtureCase("conf-betti-3d-n1", (3, 1), "conf_betti",
                [[0, 0, 3], [1, 1, 2], [1, 2, 5], [2, 3, 4]], "fast",
                "3d N=1 multiplet table (frame, gravitino; metric, Penrose)",
                {"koszul_window": (0, 5)}),
    FixtureCase("canonical-betti-3d-n1", (3, 1), "canonical_betti",
                [[0, 0, 1], [1, 2, 3], [2, 3, 2]], "fast",
                'structure-sheaf table, row "3d N=1": BRST vector'),
    # --- component-field tables (cells carry the printed dim multisets) ----
    FixtureCase("table-3d-n1", (3, 1), "conf_table",
                [[0, 0, [3]], [0, 1, [2]], [1, 0, [5]], [1, 1, [4]]], "fast",
                "3d N=1 conformal-supergravity table"),
    FixtureCase("table-3d-n2", (3, 2), "conf_table",
                [[0, 0, [3]], [0, 1, [4]], [0, 2, [1]],
                 [1, 0, [5]], [1, 1, [8]], [1, 2, [3]]], "fast",
                "3d N=2 Weyl-multiplet table"),
    FixtureCase("table-4d-n1", (4, 1), "conf_table",
                [[0, 0, [4]], [0, 1, [4]], [0, 2, [1]],
                 [1, 0, [9]], [1, 1, [12]], [1, 2, [4]]], "fast",
                "4d N=1 conformal-supergravity table"),
    FixtureCase("table-6d-n10", (6, (1, 0)), "conf_table",
                [[0, 0, [6]], [0, 1, [8]], [0, 2, [3]],
                 [1, 0, [20]], [1, 1, [40]], [1, 2, [18, 10]],
                 [1, 3, [8]], [1, 4, [1]]], "fast",
                "6d N=(1,0) Weyl-multiplet table"),
    FixtureCase("table-4d-n2", (4, 2), "conf_table",
                [[0, 0, [4]], [0, 1, [4, 4]], [0, 2, [4]],
                 [1, 0, [9]], [1, 1, [12, 12]], [1, 2, [16, 6]],
                 [1, 3, [4, 4]], [1, 4, [1]]], "fast",
                "4d N=2 Weyl-multiplet table"),
    FixtureCase("table-6d-n20", (6, (2, 0)), "conf_table",
                [[0, 0, [6]], [0, 1, [16]], [0, 2, [10]],
                 [1, 0, [20]], [1, 1, [80]], [1, 2, [60, 50]],
                 [1, 3, [64]], [1, 4, [14]]], "slow",
                "6d N=(2,0) conformal-supergravity table"),
    FixtureCase("table-10d-n10", (10, (1, 0)), "conf_table",
                [[0, 0, [10]], [0, 1, [16]],
                 [1, 0, [54]], [1, 1, [144, 16]], [1, 2, [120, 10]],
                 [2, 2, [1, 45]], [2, 3, [16]]], "slow",
                "10d multiplet table; the printed six-form at (1,2) is a "
                "suspected slip - the module's Hilbert function forces 120+10"),
    FixtureCase("table-11d-low", (11, 1), "conf_low_cells",
                [[0, 0, [11]], [0, 1, [32]], [1, 0, [65]]], "fast",
                "11d multiplet table, leading cells; the full table exceeds "
                "the desk-scale budget of this engine"),
    # --- universal low-degree checks ----------------------------------------
    FixtureCase("universal-3d-n1", (3, 1), "universal", True, "fast",
                "universal component fields, minimal 3d example"),
    FixtureCase("universal-3d-n2", (3, 2), "universal", True, "fast",
                "universal component fields, 3d N=2"),
    FixtureCase("universal-4d-n1", (4, 1), "universal", True, "fast",
                "universal component fields, 4d N=1"),
    FixtureCase("universal-6d-n10", (6, (1, 0)), "universal", True, "fast",
                "universal component fields, 6d N=(1,0)"),
    # --- twists --------------------------------------------------------------
    FixtureCase("twist-4d-n1-hol", (4, 1), "twist_dims", [0, 2], "fast",
                'maximal-twist table, row "4d N=1": holomorphic twist',
                {"vector": "holomorphic"}),
    FixtureCase("twist-3d-n2-hol", (3, 2), "twist_dims", [0, 1], "fast",
                'maximal-twist table, row "3d N=2": holomorphic twist',
                {"vector": "holomorphic"}),
    FixtureCase("twist-6d-n20-hol", (6, (2, 0)), "twist_dims", [6, 3], "fast",
                "6d N=(2,0) holomorphic twist: rank-one locus of 2x3 matrices",
                {"vector": "holomorphic"}),
    FixtureCase("twist-6d-n20-segre", (6, (2, 0)), "twist_segre", True, "fast",
                "6d N=(2,0) twisted ideal = three 2x2 minors of a 2x3 matrix",
                {"vector": "holomorphic"}),
    FixtureCase("twist-6d-n20-conf-row0", (6, (2, 0)), "twist_conf_row0", 12, "fast",
                "twisted stress-tensor multiplet: fiber dims 3 + 6 + 3",
                {"vector": "holomorphic"}),
    FixtureCase("twist-hdim-invariance", (0, 0), "twist_hdim_all", True, "fast",
                "homological dimension is twist-invariant"),
    # --- prolongations ---------------------------------------------------------
    FixtureCase("prolong-3d-n1", (3, 1), "prolong_dims",
                {"-2": 3, "-1": 2, "0": 4, "1": 2, "2": 3}, "fast",
                "3d N=1 superconformal prolongation", {"cap": 6}),
    FixtureCase("prolong-4d-n1", (4, 1), "prolong_totals", [16, 8], "fast",
                "4d N=1 superconformal algebra dimensions", {"cap": 4}),
    FixtureCase("prolong-11d", (11, 1), "prolong_degree1", 0, "fast",
                "11d: generic prolongation, no positive-degree extension",
                {"cap": 2}),
    FixtureCase("prolong-1d-n1-capped", (1, 1), "prolong_capped", True, "fast",
                "1d N=1: contact algebra, never terminates", {"caps": [2, 3, 4, 5, 6]}),
]


def run_fixture(case: FixtureCase) -> FixtureOutcome:
    alg = build_standard(*case.algebra) if case.kind != "twist_hdim_all" else None
    kind = case.kind
    expected = case.expected
    table = None
    if kind == "hdim":
        got = hdim(alg)
    elif kind == "gorenstein":
        _, got = is_gorenstein(canonical_module(alg).module)
    elif kind == "conf_betti":
        m = conf_module(alg)
        _, betti = minimal_free_resolution(m.module)
        got = sorted_rows(betti.entries)
        window = case.options.get("koszul_window")
        if window and got == expected:
            oracle = koszul_tor(m.module, tuple(window))
            if oracle.entries != betti.restrict(tuple(window)).entries:
                got = {"resolution": got, "koszul": sorted_rows(oracle.entries)}
    elif kind == "canonical_betti":
        m = canonical_module(alg)
        _, betti = minimal_free_resolution(m.module)
        got = sorted_rows(betti.entries)
    elif kind in ("conf_table", "conf_low_cells"):
        m = conf_module(alg)
        if kind == "conf_table":
            table = component_fields(m)
            cells = table.cells
        else:
            max_j = max(2 * r + c for r, c, _ in expected)
            entries = low_betti(m.module, max_j)
            cells = {(j - i, 2 * i - j): v for (i, j), v in entries.items()}
        expected = sorted_rows({(r, c): sum(ms) for r, c, ms in expected})
        got = sorted_rows(cells)
    elif kind == "universal":
        got = universal_checks(alg).passed
    elif kind == "twist_dims":
        q = catalog_twist_vector(alg, case.options["vector"])
        res = twist(alg, q)
        got = [res.twisted.k, res.twisted.d]
    elif kind == "twist_segre":
        q = catalog_twist_vector(alg, case.options["vector"])
        res = twist(alg, q)
        tw_gb = ideal_gb(res.twisted.ring(), res.twisted.quadrics())
        ring = GradedRing([f"x{i}" for i in range(6)])
        x = [ring.variable(i) for i in range(6)]
        minors = [
            x[0] * x[4] - x[1] * x[3],
            x[0] * x[5] - x[2] * x[3],
            x[1] * x[5] - x[2] * x[4],
        ]
        ref = hilbert_series(ideal_gb(ring, minors))
        got = (
            hilbert_series(tw_gb).coefficients(12) == ref.coefficients(12)
            and all(len(p.terms) == 2 for p in res.twisted.quadrics())
        )
    elif kind == "twist_conf_row0":
        q = catalog_twist_vector(alg, case.options["vector"])
        res = twist(alg, q)
        table = component_fields(conf_module(res.twisted))
        got = sum(v for (r, _), v in table.cells.items() if r == 0)
    elif kind == "twist_hdim_all":
        cases = [
            ((3, 2), "holomorphic"),
            ((4, 1), "holomorphic"),
            ((4, 2), "holomorphic"),
            ((4, 2), "kapustin"),
            ((6, (1, 0)), "holomorphic"),
            ((6, (2, 0)), "holomorphic"),
        ]
        got = True
        for key, vec in cases:
            a = build_standard(*key)
            res = twist(a, catalog_twist_vector(a, vec))
            if hdim(a) != hdim(res.twisted):
                got = (key, vec)
                break
    elif kind == "prolong_dims":
        res = tanaka_prolongation(alg, max_degree=case.options["cap"])
        got = {str(m): v for m, v in sorted(res.dims.items())}
        if res.status != "terminated":
            got["status"] = res.status
    elif kind == "prolong_totals":
        res = tanaka_prolongation(alg, max_degree=case.options["cap"])
        got = [res.total_even(), res.total_odd()]
    elif kind == "prolong_degree1":
        res = tanaka_prolongation(alg, max_degree=case.options["cap"])
        got = res.dims.get(1, 0)
    elif kind == "prolong_capped":
        got = True
        for cap in case.options["caps"]:
            res = tanaka_prolongation(alg, max_degree=cap)
            if res.status != "capped":
                got = f"terminated at cap {cap}"
                break
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return FixtureOutcome(case.name, got == expected, expected, got,
                          case.citation, case.tier, table)


def verify(tier: str = "fast", case_name: str | None = None) -> list[FixtureOutcome]:
    outcomes = []
    for case in FIXTURES:
        if case_name is not None and case.name != case_name:
            continue
        if tier == "fast" and case.tier != "fast":
            continue
        outcomes.append(run_fixture(case))
    return outcomes
