"""Acceptance gate: the published-table criteria replayed at exact tolerance.

Every test prints one pass/fail line per criterion item (visible with -s or
on failure).  Slow-tier items carry the `slow` marker and run via
`pytest -m slow`; everything else is in the default run.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from superconf.algebras import SupertranslationAlgebra, build_standard
from superconf.cli import main
from superconf.groebner import hilbert_series, ideal_gb, krull_dim
from superconf.multiplets import (
    canonical_module,
    component_fields,
    conf_module,
    hdim,
    kaehler_module,
    universal_checks,
)
from superconf.prolongation import derivation_complex_h0, tanaka_prolongation
from superconf.resolutions import (
    ce_cohomology,
    is_gorenstein,
    koszul_homology_is_zero,
    koszul_tor,
    minimal_free_resolution,
    syzygetic_defect,
)
from superconf.twisting import catalog_twist_vector, twist


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


# --- criterion 1: homological dimension catalog ------------------------------

HDIM_FAST = [((3, 1), 1), ((4, 1), 2), ((4, 2), 1), ((6, (1, 0)), 3)]
HDIM_SLOW = [((4, 4), 0), ((6, (2, 0)), 1), ((10, (1, 0)), 5), ((10, (2, 0)), 1), ((11, 1), 2)]


@pytest.mark.parametrize("key,expected", HDIM_FAST)
def test_criterion_1_hdim_fast(key, expected):
    got = hdim(build_standard(*key))
    report(f"criterion 1: hdim {key} = {expected}", got == expected, f"got {got}")


@pytest.mark.slow
@pytest.mark.parametrize("key,expected", HDIM_SLOW)
def test_criterion_1_hdim_slow(key, expected):
    got = hdim(build_standard(*key))
    report(f"criterion 1: hdim {key} = {expected}", got == expected, f"got {got}")


# --- criterion 2: Gorenstein / Calabi-Yau flags -------------------------------

GOR_FAST = [((3, 1), False), ((4, 1), False), ((4, 2), False), ((6, (1, 0)), False)]
GOR_SLOW = [
    ((4, 4), True),
    ((6, (2, 0)), False),
    ((10, (1, 0)), True),
    ((10, (2, 0)), False),
    ((11, 1), True),
]


@pytest.mark.parametrize("key,expected", GOR_FAST)
def test_criterion_2_gorenstein_fast(key, expected):
    alg = build_standard(*key)
    _, gor = is_gorenstein(alg.ring(), alg.quadrics())
    report(f"criterion 2: Gorenstein {key} = {expected}", gor == expected, f"got {gor}")


@pytest.mark.slow
@pytest.mark.parametrize("key,expected", GOR_SLOW)
def test_criterion_2_gorenstein_slow(key, expected):
    alg = build_standard(*key)
    _, gor = is_gorenstein(alg.ring(), alg.quadrics())
    report(f"criterion 2: Gorenstein {key} = {expected}", gor == expected, f"got {gor}")


# --- criteria 3 and 4: the minimal 3d example ---------------------------------


def test_criterion_3_conf_3d_n1():
    alg = build_standard(3, 1)
    m = conf_module(alg)
    _, betti = minimal_free_resolution(m.module)
    expected = {(0, 0): 3, (1, 1): 2, (1, 2): 5, (2, 3): 4}
    report("criterion 3: 3d N=1 conf Betti", betti.entries == expected,
           f"got {betti.entries}")
    oracle = koszul_tor(m.module, (0, betti.max_degree() + 2))
    report("criterion 3: Koszul oracle agrees bit for bit",
           oracle.entries == betti.entries, f"oracle {oracle.entries}")
    table = component_fields(m, betti)
    expected_cells = {(0, 0): 3, (0, 1): 2, (1, 0): 5, (1, 1): 4}
    report("criterion 3: component table (3,2;5,4)",
           table.cells == expected_cells, f"got {table.cells}")


def test_criterion_4_canonical_3d_n1():
    alg = build_standard(3, 1)
    _, betti = minimal_free_resolution(canonical_module(alg).module)
    expected = {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    report("criterion 4: 3d N=1 canonical Betti (BRST vector)",
           betti.entries == expected, f"got {betti.entries}")


# --- criterion 5: component tables against the published tables --------------

TABLES_FAST = {
    (3, 2): {(0, 0): 3, (0, 1): 4, (0, 2): 1, (1, 0): 5, (1, 1): 8, (1, 2): 3},
    (4, 1): {(0, 0): 4, (0, 1): 4, (0, 2): 1, (1, 0): 9, (1, 1): 12, (1, 2): 4},
    (6, (1, 0)): {
        (0, 0): 6, (0, 1): 8, (0, 2): 3,
        (1, 0): 20, (1, 1): 40, (1, 2): 18 + 10, (1, 3): 8, (1, 4): 1,
    },
}

TABLES_STRETCH = {
    (4, 2): {
        (0, 0): 4, (0, 1): 4 + 4, (0, 2): 4,
        (1, 0): 9, (1, 1): 12 + 12, (1, 2): 16 + 6, (1, 3): 4 + 4, (1, 4): 1,
    },
    (6, (2, 0)): {
        (0, 0): 6, (0, 1): 16, (0, 2): 10,
        (1, 0): 20, (1, 1): 80, (1, 2): 60 + 50, (1, 3): 64, (1, 4): 14,
    },
    # As printed: the (1,2) cell stacks a six-form (210) over a one-form (10).
    # The engine certifies 120 + 10 there (see Decisions in CHANGES.md); this
    # entry stays faithful to the printed table and is expected to stay red.
    (10, (1, 0)): {
        (0, 0): 10, (0, 1): 16,
        (1, 0): 54, (1, 1): 144 + 16, (1, 2): 210 + 10,
        (2, 2): 1 + 45, (2, 3): 16,
    },
}


@pytest.mark.parametrize("key", sorted(TABLES_FAST, key=str))
def test_criterion_5_tables(key):
    table = conf_table_cached(key)
    expected = TABLES_FAST[key]
    report(f"criterion 5: component table {key}", table.cells == expected,
           f"got {table.cells}")


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
    from superconf.groebner import module_hilbert_numerator

    key = (10, (1, 0))
    table = conf_table_cached(key)
    certified = dict(TABLES_STRETCH[key])
    certified[(1, 2)] = 120 + 10
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
def test_criterion_5_table_11d_low_cells():
    """Leading 11d cells by direct degreewise linear algebra: the full
    resolution exceeds the slow budget (the relation basis alone has 675
    elements), but rows (0,*) and the metric cell are certified cheaply and
    match the printed table."""
    from superconf.resolutions import low_betti

    alg = build_standard(11, 1)
    m = conf_module(alg)
    entries = low_betti(m.module, 2)
    cells = {(j - i, 2 * i - j): v for (i, j), v in entries.items()}
    expected = {(0, 0): 11, (0, 1): 32, (1, 0): 65}
    report("criterion 5: 11d leading cells (11, 32, 65)",
           cells == expected, f"got {cells}")


@pytest.mark.slow
def test_criterion_5_table_11d_full():
    pytest.skip(
        "11d full component table: the conf relation basis alone has 675 "
        "elements (measured ~4 min); the first syzygy pass over its pairs in "
        "32 variables extrapolates to days, far beyond the 2h slow budget on "
        "this hardware. Leading cells are certified in the companion test; "
        "see Decisions in CHANGES.md."
    )


# --- criterion 6: universal checks -------------------------------------------


@pytest.mark.parametrize("key", sorted(TABLES_FAST, key=str) + [(3, 1)])
def test_criterion_6_universal(key):
    alg = build_standard(*key)
    rep = universal_checks(alg, table=conf_table_cached(key) if key != (3, 1) else None)
    report(f"criterion 6: universal checks {key}", rep.passed, str(rep.failures()))


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(TABLES_STRETCH, key=str))
def test_criterion_6_universal_stretch(key):
    alg = build_standard(*key)
    rep = universal_checks(alg, table=conf_table_cached(key))
    report(f"criterion 6: universal checks {key}", rep.passed, str(rep.failures()))


@pytest.mark.slow
def test_criterion_6_universal_11d_from_low_cells():
    """The universal identities touch only cells certified by low_betti plus
    the absence of a degree-2 second syzygy, checked by rank."""
    from superconf.linalg import sparse_rank
    from superconf.resolutions import low_betti
    from superconf.algebras import derivations_deg0

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
            for (c, m2), v in r.terms.items():
                key = (c, tuple(a + b for a, b in zip(mon, m2)))
                index.setdefault(key, len(index))
                row[index[key]] = row.get(index[key], 0) + v
            rows.append(row)
    rank = sparse_rank(rows)
    report("criterion 6: 11d has no R-symmetry cell (beta_{2,2} = 0)",
           len(linear_rels) == alg.k and rank == len(rows),
           f"{len(linear_rels)} degree-1 relations, rank {rank} of {len(rows)}")


# --- criterion 7: twist fixtures ----------------------------------------------


def test_criterion_7_twists():
    alg = build_standard(4, 1)
    res = twist(alg, catalog_twist_vector(alg, "holomorphic"))
    report("criterion 7: 4d N=1 holomorphic twist dims (0|2)",
           (res.twisted.k, res.twisted.d) == (0, 2),
           f"got ({res.twisted.k}|{res.twisted.d})")

    alg = build_standard(3, 2)
    res = twist(alg, catalog_twist_vector(alg, "holomorphic"))
    report("criterion 7: 3d N=2 holomorphic twist dims (0|1)",
           (res.twisted.k, res.twisted.d) == (0, 1),
           f"got ({res.twisted.k}|{res.twisted.d})")

    alg = build_standard(6, (2, 0))
    res = twist(alg, catalog_twist_vector(alg, "holomorphic"))
    report("criterion 7: 6d (2,0) holomorphic twist dims (6|3)",
           (res.twisted.k, res.twisted.d) == (6, 3),
           f"got ({res.twisted.k}|{res.twisted.d})")
    # the twisted ideal is the rank-one locus of a generic 2x3 matrix
    from superconf.rings import GradedRing

    tw_gb = ideal_gb(res.twisted.ring(), res.twisted.quadrics())
    ring = GradedRing([f"x{i}" for i in range(6)])
    x = [ring.variable(i) for i in range(6)]
    minors = [
        x[0] * x[4] - x[1] * x[3],
        x[0] * x[5] - x[2] * x[3],
        x[1] * x[5] - x[2] * x[4],
    ]
    same_series = (
        hilbert_series(tw_gb).coefficients(12)
        == hilbert_series(ideal_gb(ring, minors)).coefficients(12)
    )
    binomials = all(
        len(p.terms) == 2 for p in res.twisted.quadrics() if not p.is_zero()
    )
    report("criterion 7: twisted ideal = 2x2 minors of a 2x3 matrix",
           same_series and binomials, "")
    table = component_fields(conf_module(res.twisted))
    row0 = sum(v for (r, _), v in table.cells.items() if r == 0)
    report("criterion 7: twisted conf degree-0 dims sum to 12", row0 == 12,
           f"got {row0}")

    fixtures = [
        ((3, 2), "holomorphic"),
        ((4, 1), "holomorphic"),
        ((4, 2), "holomorphic"),
        ((4, 2), "kapustin"),
        ((6, (1, 0)), "holomorphic"),
        ((6, (2, 0)), "holomorphic"),
    ]
    ok = True
    for key, vec in fixtures:
        a = build_standard(*key)
        r = twist(a, catalog_twist_vector(a, vec))
        if hdim(a) != hdim(r.twisted):
            ok = (key, vec)
            break
    report("criterion 7: hdim invariance on every twist fixture", ok is True,
           str(ok))


# --- criterion 8: prolongation fixtures ----------------------------------------


def test_criterion_8_prolongation_3d_n1():
    res = tanaka_prolongation(build_standard(3, 1), max_degree=6)
    ok = (
        res.dims == {-2: 3, -1: 2, 0: 4, 1: 2, 2: 3}
        and res.status == "terminated"
        and res.total_even() == 10
        and res.total_odd() == 4
    )
    report("criterion 8: 3d N=1 prolongation {3,2,4,2,3} total 10|4", ok,
           f"got {res.dims} {res.status}")


def test_criterion_8_prolongation_4d_n1():
    res = tanaka_prolongation(build_standard(4, 1), max_degree=4)
    ok = res.total_even() == 16 and res.total_odd() == 8
    report("criterion 8: 4d N=1 prolongation total 16|8", ok,
           f"got {res.total_even()}|{res.total_odd()}")


@pytest.mark.medium
def test_criterion_8_prolongation_11d():
    res = tanaka_prolongation(build_standard(11, 1), max_degree=2)
    report("criterion 8: 11d degree-1 prolongation vanishes",
           res.dims.get(1, 0) == 0, f"got {res.dims}")


def test_criterion_8_prolongation_1d_capped_with_oracle():
    alg = build_standard(1, 1)
    ok = True
    for cap in (2, 3, 4, 5, 6):
        res = tanaka_prolongation(alg, max_degree=cap)
        if res.status != "capped":
            ok = f"terminated at cap {cap}"
            break
    report("criterion 8: 1d N=1 capped at every cap <= 6", ok is True, str(ok))
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
