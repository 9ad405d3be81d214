"""Acceptance gate: the published-table criteria replayed at exact tolerance.

The published values live in `superconf.fixtures.FIXTURES`, the table that
`superconf verify` replays; `test_fixture` runs each case once, with the
`slow` marker exactly on the slow-tier cases.  The other tests here check
what no fixture holds: the printed 10d table, the certificates behind the
10d and 11d rows, the derivation-complex oracle, the randomized cross-oracle
suite and determinism.  Every test prints one pass/fail line per item
(visible with -s or on failure).  Slow items run via `pytest -m slow`.
"""

import dataclasses
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from superconf.algebras import SupertranslationAlgebra, build_standard, derivations_deg0
from superconf.cli import main
from superconf.fixtures import FIXTURES, run_fixture
from superconf.groebner import hilbert_series, ideal_gb, krull_dim, module_hilbert_numerator
from superconf.linalg import sparse_rank
from superconf.multiplets import (
    canonical_module,
    component_fields,
    conf_module,
    kaehler_module,
    universal_checks,
)
from superconf.prolongation import derivation_complex_h0, tanaka_prolongation
from superconf.resolutions import (
    ce_cohomology,
    koszul_homology_is_zero,
    koszul_tor,
    low_betti,
    minimal_free_resolution,
    syzygetic_defect,
)


# One conf component table per catalog row and session: `test_fixture` stores
# the table its `conf_table` case built, and the stretch tests reuse it.
_table_cache: dict = {}


def conf_table_cached(key):
    if key not in _table_cache:
        alg = build_standard(*key)
        _table_cache[key] = component_fields(conf_module(alg))
    return _table_cache[key]


def report(label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] {label}" + (f" - {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


# --- criteria 1-8: the published values, one test per fixture case ------------


@pytest.mark.parametrize("case", [
    pytest.param(case, id=case.name, marks=[pytest.mark.slow] if case.tier == "slow" else [])
    for case in FIXTURES
])
def test_fixture(case):
    outcome = run_fixture(case)
    if outcome.table is not None:
        _table_cache.setdefault(case.algebra, outcome.table)
    report(f"{case.name}: {case.citation}", outcome.passed,
           f"expected {outcome.expected}, got {outcome.got}")


def test_koszul_window_narrower_than_the_table_agrees():
    # the oracle sees degrees 0..2 only, so it is compared with the table
    # restricted to that window, as `multiplet --window` compares it
    case = next(c for c in FIXTURES if c.name == "conf-betti-3d-n1")
    narrow = dataclasses.replace(case, options={"koszul_window": (0, 2)})
    outcome = run_fixture(narrow)
    assert outcome.passed, outcome.got


# --- criterion 5: what the fixtures do not hold --------------------------------

# As printed: the (1,2) cell stacks a six-form (210) over a one-form (10).
# The engine certifies 120 + 10 there (fixture "table-10d-n10"; see Decisions
# in CHANGES.md); this entry stays faithful to the printed table and is
# expected to stay red.
TABLES_STRETCH = {
    (10, (1, 0)): {
        (0, 0): 10, (0, 1): 16,
        (1, 0): 54, (1, 1): 144 + 16, (1, 2): 210 + 10,
        (2, 2): 1 + 45, (2, 3): 16,
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(TABLES_STRETCH, key=str))
def test_criterion_5_tables_stretch(key):
    table = conf_table_cached(key)
    expected = TABLES_STRETCH[key]
    report(f"criterion 5: component table {key} (stretch)",
           table.cells == expected, f"got {table.cells}")


@pytest.mark.slow
def test_criterion_5_table_10d_certified_value():
    """The machine-certified 10d table: resolution Betti numbers agree with
    the initial-module Hilbert numerator (an independent combinatorial path),
    pinning the disputed cell at 120 + 10."""
    (case,) = [c for c in FIXTURES if c.name == "table-10d-n10"]
    key = case.algebra
    table = conf_table_cached(key)
    certified = {(r, c): sum(ms) for r, c, ms in case.expected}
    report("criterion 5: 10d table equals the certified values",
           table.cells == certified, f"got {table.cells}")
    alg = build_standard(*key)
    m = conf_module(alg)
    euler: dict = {}
    for (i, j), mult in table.source.entries.items():
        euler[j] = euler.get(j, 0) + (-1) ** i * mult
    euler = {j: c for j, c in euler.items() if c}
    gens_minus = dict(module_hilbert_numerator(m.module.relation_gb()))
    report("criterion 5: 10d Betti/Hilbert Euler identity",
           euler == gens_minus, f"{euler} vs {gens_minus}")


@pytest.mark.slow
def test_criterion_5_table_11d_full():
    pytest.skip(
        "11d full component table: the conf relation basis has 675 elements "
        "(25 s) and the first Schreyer frame 8,685 elements in 32 variables "
        "(52 s, 543 MB peak RSS); the second frame passed 2.5 GB of address "
        "space within about 6 min (MemoryError under ulimit -v 2500000 on a "
        "2-vCPU, 8 GB VM), so the table does not fit the slow tier. Leading "
        "cells are certified by the fixture table-11d-low; see Decisions in "
        "CHANGES.md."
    )


# --- criterion 6: universal checks on the stretch tables -----------------------


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted([(4, 2), (6, (2, 0)), (10, (1, 0))], key=str))
def test_criterion_6_universal_stretch(key):
    alg = build_standard(*key)
    rep = universal_checks(alg, table=conf_table_cached(key))
    report(f"criterion 6: universal checks {key}", rep.passed, str(rep.failures()))


@pytest.mark.slow
def test_criterion_6_universal_11d_from_low_cells():
    """The universal identities touch only cells certified by low_betti plus
    the absence of a degree-2 second syzygy, checked by rank."""
    alg = build_standard(11, 1)
    g0 = derivations_deg0(alg)
    m = conf_module(alg)
    entries = low_betti(m.module, 2)
    cells = {(j - i, 2 * i - j): v for (i, j), v in entries.items()}
    ok = (
        cells.get((0, 0)) == alg.d
        and cells.get((0, 1)) == alg.k
        and g0.rho2_kernel_dim() == 0
        and cells.get((1, 0)) == alg.d * alg.d - g0.rho2_image_dim()
    )
    report("criterion 6: universal checks 11d (certified cells)", ok, str(cells))
    # Cell (0,2) must be absent: beta_{2,2} = 0.  The degree-1 relations are
    # the k Jacobian columns, minimal by cell (0,1) = k.  A degree-2 second
    # syzygy cannot involve a minimal degree-2 relation, so beta_{2,2} is the
    # number of dependencies among (degree-1 relation) x (linear form).  The
    # rows q_mu e_nu are not minimal relations and stay out of the count.
    ring = alg.ring()
    linear_rels = [r for r in m.module.relations if not r.is_zero() and r.degree() == 1]
    rows = []
    index: dict = {}
    for r in linear_rels:
        for mon in ring.monomials_of_degree(1):
            row = {}
            for t, v in r.terms.items():
                key = mon + t
                index.setdefault(key, len(index))
                row[index[key]] = row.get(index[key], 0) + v
            rows.append(row)
    rank = sparse_rank(rows)
    report("criterion 6: 11d has no R-symmetry cell (beta_{2,2} = 0)",
           len(linear_rels) == alg.k and rank == len(rows),
           f"{len(linear_rels)} degree-1 relations, rank {rank} of {len(rows)}")


# --- criterion 8: the derivation-complex oracle --------------------------------


def test_criterion_8_prolongation_1d_capped_with_oracle():
    alg = build_standard(1, 1)
    cap = 4
    res = tanaka_prolongation(alg, max_degree=cap)
    h0 = derivation_complex_h0(alg, cap)
    agree = True
    for m in range(-2, cap + 1):
        expect = res.dims.get(m, 0)
        even, odd = h0.get(m, (0, 0))
        if even + odd != expect:
            agree = f"degree {m}: prolongation {expect}, oracle {(even, odd)}"
            break
    report("criterion 8: 1d N=1 truncated dims match the derivation oracle",
           agree is True, str(agree))


# --- criterion 9: randomized cross-oracle suite --------------------------------


def _random_algebra(rng: random.Random, tag: int) -> SupertranslationAlgebra:
    k = rng.randint(1, 4)
    d = rng.randint(1, 4)
    gamma = [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            for mu in range(d):
                if rng.random() < 0.35:
                    num = rng.choice([1, -1, 2, -2, 3])
                    den = rng.choice([1, 1, 1, 2])
                    gamma[a][b][mu] = Fraction(num, den)
                    gamma[b][a][mu] = Fraction(num, den)
    return SupertranslationAlgebra(f"random-{tag}", k, d, gamma)


def test_criterion_9_cross_oracle_random_suite():
    rng = random.Random(20260809)
    failures = []
    for i in range(25):
        alg = _random_algebra(rng, i)
        ring = alg.ring()
        quadrics = alg.quadrics()
        nonzero = [q for q in quadrics if not q.is_zero()]
        # (a) resolution Betti vs Koszul oracle on the conf module
        m = conf_module(alg)
        _, betti = minimal_free_resolution(m.module)
        window = (0, betti.max_degree() + 1)
        oracle = koszul_tor(m.module, window)
        if oracle.entries != betti.entries:
            failures.append((alg.name, "betti-oracle"))
            continue
        # (b) Euler characteristic vs Hilbert numerator for the variety
        _, cbetti = minimal_free_resolution(canonical_module(alg).module)
        euler: dict = {}
        for (idx, j), mult in cbetti.entries.items():
            euler[j] = euler.get(j, 0) + (-1) ** idx * mult
        euler = {j: c for j, c in euler.items() if c}
        hs = hilbert_series(ideal_gb(ring, nonzero))
        if euler != hs.numerator:
            failures.append((alg.name, "euler"))
            continue
        # (c) defect + one-forms = first Koszul homology, degree by degree
        kae = kaehler_module(alg)
        top = cbetti.max_degree() + 3
        h1 = ce_cohomology(alg, 1, (0, top))
        defect = syzygetic_defect(ring, quadrics, (0, top))
        if any(h1[j] != defect[j] + kae.graded_dim(j) for j in range(top + 1)):
            failures.append((alg.name, "compare-sequence"))
            continue
        # (d) hdim formula vs Koszul vanishing
        dim_y = krull_dim(ideal_gb(ring, nonzero))
        value = alg.d - alg.k + dim_y
        topk = 0
        for kk in range(alg.d, 0, -1):
            if not koszul_homology_is_zero(ring, quadrics, kk, [2] * alg.d):
                topk = kk
                break
        if topk != value:
            failures.append((alg.name, "hdim-vanishing"))
    report("criterion 9: 25 randomized algebras, all cross-oracles agree",
           not failures, str(failures))


# --- criterion 10: determinism -------------------------------------------------


def test_criterion_10_verify_determinism():
    def transcript():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["--json", "verify", "--tier", "fast"])
        return code, buf.getvalue()

    code1, out1 = transcript()
    code2, out2 = transcript()
    ok = code1 == 0 and code2 == 0 and out1 == out2
    report("criterion 10: verify --tier fast is byte-identical across runs", ok,
           f"codes {code1},{code2}, equal={out1 == out2}")
    data = json.loads(out1)
    report("criterion 10: fast verify passes", data["passed"] is True, "")
