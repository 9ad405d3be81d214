import hashlib
from fractions import Fraction

import pytest

from superconf.groebner import (
    HilbertSeries,
    buchberger,
    hilbert_series,
    ideal_gb,
    krull_dim,
    module_hilbert_numerator,
    schreyer_syzygies,
    standard_monomials,
    syzygy_module,
)
from superconf.rings import (
    FIELD_LIMIT,
    FreeModule,
    GradedRing,
    ModuleOrder,
    poly_ring,
)


def sq(ring):
    """The three quadrics cutting out the minimal 3d cone: x^2, xy, y^2."""
    x, y = ring.variable(0), ring.variable(1)
    return [x * x, x * y, y * y]


def test_monomial_ideal_is_its_own_basis():
    R = GradedRing(["x", "y"])
    gb = ideal_gb(R, sq(R))
    assert sorted(str(p) for p in gb.elements) == ["x*y", "x^2", "y^2"]


def test_principal_ideal():
    R, x, y, z = poly_ring("x", "y", "z")
    f = x * y - z * z
    gb = ideal_gb(R, [f])
    assert len(gb) == 1
    assert gb.normal_form(f).is_zero()


def test_normal_form_membership():
    R, x, _y = poly_ring("x", "y")
    gb = ideal_gb(R, sq(R))
    assert gb.normal_form(x * x * x).is_zero()
    assert gb.normal_form(x) == x


def test_normal_form_linearity():
    R, x, _y = poly_ring("x", "y")
    gb = ideal_gb(R, sq(R))
    nf = gb.normal_form(x * x + x)
    assert nf == x


def test_buchberger_closes_under_s_pairs():
    # x^2 - yz, y^2 - xz: the classic example needing completion
    R, x, y, z = poly_ring("x", "y", "z")
    gb = ideal_gb(R, [x * x - y * z, x * y - z * z])
    # every original generator reduces to zero
    for p in [x * x - y * z, x * y - z * z]:
        assert gb.normal_form(p).is_zero()
    # and the basis is larger than the input
    assert len(gb) >= 2


def test_syzygy_regular_sequence_is_koszul():
    R, x, y = poly_ring("x", "y")
    gens = [x * x, y * y]
    syz = syzygy_module(gens)
    assert len(syz) == 1
    z = syz[0]
    # proportional to y^2 e_0 - x^2 e_1
    c0 = z.component(0)
    c1 = z.component(1)
    assert c0.terms == {R.pack(0, (0, 2)): list(c0.terms.values())[0]}
    assert c1.terms == {R.pack(0, (2, 0)): list(c1.terms.values())[0]}
    assert list(c0.terms.values())[0] == -list(c1.terms.values())[0]


def test_syzygy_single_generator_over_domain():
    _R, x, y = poly_ring("x", "y")
    assert syzygy_module([x * y]) == []


def test_syzygies_annihilate_generators():
    R, x, y, z = poly_ring("x", "y", "z")
    polys = [x * x - y * z, x * y - z * z, y * y - x * z]
    for z_elt in syzygy_module(polys):
        total = R.zero()
        for s in range(len(polys)):
            total = total + z_elt.component(s) * polys[s]
        assert total.is_zero()


def test_syzygies_when_a_tag_ties_a_module_term_in_degree():
    """F = R + R(-1): g_0 = x*e0 + e1 has a unit term, so its tag and the F
    terms of e1 share monomial degrees.  g_0 and g_1 are independent: their
    S-pair leaves y*e1 + y*E0 - x*E1, where y*e1 must lead and not the tag
    x*E1.  With g_2 = y*e1, y*g_0 - x*g_1 - g_2 = 0 generates the syzygies."""
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [0, 1])
    gens = [F.gen(0) * x + F.gen(1), F.gen(0) * y, F.gen(1) * y]
    assert syzygy_module(gens[:2]) == []
    syz = syzygy_module(gens)
    assert len(syz) == 1
    z = syz[0]
    c = z.terms[R.pack(2, (0, 0))]
    assert z.terms == {R.pack(0, (0, 1)): -c, R.pack(1, (1, 0)): c, R.pack(2, (0, 0)): c}


def test_schreyer_syzygies_of_gb():
    R, _x, _y = poly_ring("x", "y")
    gb = ideal_gb(R, sq(R))
    frame, _ = schreyer_syzygies(gb)
    # relations among x^2, xy, y^2: two linear syzygies
    polys = gb.elements
    for z in frame.elements:
        total = R.zero()
        for s in range(len(polys)):
            total = total + z.component(s) * polys[s]
        assert total.is_zero()
    assert len(frame) >= 2


def test_frame_keeps_the_smallest_partner_among_equal_quotients():
    # Basis yz < xz < xy: both pairs of yz have quotient x; the frame keeps
    # x*e0 - y*e1 (partner xz), not x*e0 - z*e2 (partner xy).
    R, x, y, z = poly_ring("x", "y", "z")
    gb = ideal_gb(R, [x * y, x * z, y * z])
    assert [str(p) for p in gb.elements] == ["y*z", "x*z", "x*y"]
    frame, _ = schreyer_syzygies(gb)
    X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert [e.terms for e in frame.elements] == [
        {R.pack(1, Y): 1, R.pack(2, Z): -1},
        {R.pack(0, X): 1, R.pack(1, Y): -1},
    ]


def test_schreyer_frames_store_the_induced_order_keys():
    """A fixed presentation with frames of 3 and 1 elements: every stored
    lead and tail key is the induced order's, so a key shortcut that breaks
    the Schreyer orders fails on every run."""
    R, x, y, z = poly_ring("x", "y", "z")
    gens = [x * x * z * z - y * y * z * z, x * y * y - z * z * z, y * y * y * y - x * z * z * z]
    gb = ideal_gb(R, gens)
    sizes = []
    while len(gb):
        gb, order = schreyer_syzygies(gb)
        sizes.append(len(gb))
        for g in gb._internal:
            for t, nk in [(g.lt, g.nlt), *((t, k) for t, _, k in g.tail)]:
                assert nk == -order.key(t)
    assert sizes == [3, 1, 0]


def test_hilbert_series_m_squared():
    R = GradedRing(["x", "y"])
    gb = ideal_gb(R, sq(R))
    hs = hilbert_series(gb)
    assert hs.numerator == {0: 1, 2: -3, 3: 2}
    assert hs.coefficients(4) == [1, 2, 0, 0, 0]


def test_hilbert_series_full_ring():
    R = GradedRing(["x", "y"])
    gb = ideal_gb(R, [])
    assert hilbert_series(gb).numerator == {0: 1}


def test_hilbert_series_hyperplane():
    R, x, _y = poly_ring("x", "y")
    gb = ideal_gb(R, [x])
    hs = hilbert_series(gb)
    assert hs.coefficients(5) == [1, 1, 1, 1, 1, 1]


def test_hilbert_coefficients_count_negative_numerator_degrees():
    # Q[x] generated in degree -1: dimension 1 from degree -1 up
    assert HilbertSeries({-1: 1}, 1).coefficients(2) == [1, 1, 1]
    # (t^-2 - 1) / (1 - t)^2 = t^-2 (1 + t): dimension 2 from degree -1 up
    assert HilbertSeries({-2: 1, 0: -1}, 2).coefficients(3) == [2, 2, 2, 2]


def test_krull_dim():
    R = GradedRing(["x", "y"])
    assert krull_dim(ideal_gb(R, sq(R))) == 0
    x, _y = R.variable(0), R.variable(1)
    assert krull_dim(ideal_gb(R, [x])) == 1
    assert krull_dim(ideal_gb(R, [])) == 2
    assert krull_dim(ideal_gb(R, [R.constant(1)])) == -1


def test_standard_monomials_and_quotient_dimension():
    R = GradedRing(["x", "y"])
    gb = ideal_gb(R, sq(R))
    assert len(standard_monomials(gb, 0)) == 1
    assert len(standard_monomials(gb, 1)) == 2
    assert standard_monomials(gb, 2) == []
    assert hilbert_series(gb).coefficients(1)[1] == 2


def test_module_hilbert_numerator_free():
    R = GradedRing(["x", "y"])
    mod = FreeModule(R, [0, 1])
    gb = buchberger([mod.zero()])
    assert module_hilbert_numerator(gb) == {0: 1, 1: 1}


def test_4d_n1_quadrics_already_reduced_basis():
    # products of one chiral and one antichiral variable: already a GB
    from superconf.algebras import build_standard

    alg = build_standard(4, 1)
    gb = ideal_gb(alg.ring(), alg.quadrics())
    got = sorted(str(p) for p in gb.elements)
    expected = sorted(str(p * Fraction(1, 2)) for p in alg.quadrics())
    assert got == expected


def test_packed_field_overflow_is_loud():
    """A term past the 15-bit packed fields raises instead of wrapping."""
    R = GradedRing(["x", "y"])

    def mono(*exps):
        return R.element({R.pack(0, exps): Fraction(1)})

    assert len(ideal_gb(R, [mono(2**15 - 1, 0)])) == 1
    with pytest.raises(ValueError, match="limit 32767"):
        ideal_gb(R, [mono(2**15, 0)])
    # inputs that fit, whose S-pair lcm x^20000*y^20000 does not
    with pytest.raises(ValueError, match="degree 40000 exceeds .* limit 32767"):
        ideal_gb(R, [mono(20000, 1), mono(1, 20000)])
    # factors that fit, whose product x^20001*y^20001 does not
    with pytest.raises(ValueError, match="degree 40002 exceeds"):
        ideal_gb(R, [mono(20000, 1) * mono(1, 20000)])
    line = GradedRing(["x"])  # one variable: the exponent is the degree
    with pytest.raises(ValueError, match="degree 33000"):
        ideal_gb(line, [line.element({line.pack(0, (33000,)): Fraction(1)})])
    with pytest.raises(ValueError, match="degree 32768 exceeds .* limit 32767"):
        R.pack(0, (2**15, 0))
    with pytest.raises(ValueError, match="degree 32768 exceeds .* limit 32767"):
        R.monomials_of_degree(FIELD_LIMIT + 1)


def test_syzygies_modulo_a_submodule():
    """{a : a_0 x + a_1 y in (xy)} is generated by y*e0 and x*e1, which the
    Koszul syzygy y*e0 - x*e1 alone does not reach."""
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [1, 1])
    expected = buchberger([F.gen(0) * y, F.gen(1) * x])
    got = buchberger(syzygy_module([x, y], modulo=[x * y]))
    assert [g.terms for g in got.elements] == [g.terms for g in expected.elements]
    assert syzygy_module([x, y], modulo=[]) == syzygy_module([x, y])


def test_modulo_that_is_not_a_reduced_basis_is_rejected():
    """x^2*e0 reduces by x*e0, so [x*e0, x^2*e0] is not a reduced basis, and
    zero is in no reduced basis; a modulus of another module is rejected too."""
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [0, 0])
    gens = [F.gen(0) * y, F.gen(1) * y]
    with pytest.raises(ValueError, match="modulo is not a reduced Gröbner basis"):
        syzygy_module(gens, modulo=[F.gen(0) * x, F.gen(0) * x * x])
    with pytest.raises(ValueError, match="modulo is not a reduced Gröbner basis"):
        syzygy_module(gens, modulo=[F.zero()])
    with pytest.raises(ValueError, match="must live in one module"):
        syzygy_module(gens, modulo=[x])


def test_syzygy_module_of_no_or_mixed_generators_is_rejected():
    """x and a share their packed layout, so without a check that the rings
    agree e0 - e1 would come out as a syzygy of x in Q[x, y] and a in Q[a, b]."""
    _R, x, _y = poly_ring("x", "y")
    _S, a, _b = poly_ring("a", "b")
    with pytest.raises(ValueError, match="need at least one generator"):
        syzygy_module([])
    with pytest.raises(ValueError, match="must live in one module"):
        syzygy_module([x, a])


def test_non_homogeneous_input_is_rejected():
    """x^2 - y^2 is homogeneous of degree 2 and x - y^2 is not."""
    R, x, y = poly_ring("x", "y")
    assert len(buchberger([x * x - y * y])) == 1
    assert len(ideal_gb(R, [x * x - y * y])) == 1
    assert len(syzygy_module([x * x - y * y])) == 0
    with pytest.raises(ValueError, match="Buchberger input must be homogeneous"):
        buchberger([x - y * y])
    with pytest.raises(ValueError, match="Buchberger input must be homogeneous"):
        ideal_gb(R, [x * x, x - y * y])
    # syzygy_module reads each generator's degree before the S-pair loop sees it
    with pytest.raises(ValueError, match="homogeneous"):
        syzygy_module([x - y * y])


def test_order_of_another_ring_or_rank_is_rejected():
    """An order keys packed terms with its own ring's masks and one base entry
    per component, so an order that does not fit the module raises."""
    R, x, y, z = poly_ring("x", "y", "z")
    with pytest.raises(ValueError, match="does not fit rank 1 over GradedRing"):
        buchberger([x * x - y * z, x * y - z * z], ModuleOrder.top(GradedRing(["a", "b"]), 1))
    free = FreeModule(R, [0, 0])
    gens = [free.gen(0) * x - free.gen(1) * y]
    assert len(buchberger(gens, ModuleOrder.top(R, 2))) == 1
    for rank in (1, 3):
        with pytest.raises(ValueError, match=f"module order of rank {rank} over"):
            buchberger(gens, ModuleOrder.top(R, rank))


def _key_digest(elem_lists) -> str:
    """SHA-256 of every stored negated key: each element's lead key, then its tail keys."""
    text = "|".join(
        ";".join(",".join(map(str, [g.nlt, *(k for _, _, k in g.tail)])) for g in elems)
        for elems in elem_lists
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key, digest", [
    ((4, 2), "5ed19bd25814b081c2d20b9886f9ad602ec0278e13fd78000d72a9df4017d013"),
    ((6, (1, 0)), "658da8296222ecf4f1818bfaeffeced3227bd20dfb8e83310784f03de8edad76"),
])
def test_conf_chain_order_keys_are_pinned(key, digest):
    """The negated order keys stored along a conf resolution chain: the TOP
    basis and every Schreyer frame after it."""
    from superconf.algebras import build_standard
    from superconf.multiplets import conf_module
    from superconf.resolutions import minimal_free_resolution

    chain, _ = minimal_free_resolution(conf_module(build_standard(*key)).module)
    assert len(chain) == 5
    assert _key_digest([gb._internal for gb in chain]) == digest


def test_tagged_syzygy_order_keys_are_pinned(monkeypatch):
    """The negated keys of the basis and the set-aside elements of the three
    S-pair runs behind the 6d N=(1,0) kaehler module: the tagged run of the
    Koszul cycles, the ideal's basis, and the tagged run modulo GB(I)·V*,
    whose basis starts with the 6 * 6 known elements."""
    from superconf import groebner
    from superconf.algebras import build_standard
    from superconf.multiplets import kaehler_module

    runs = []
    loop = groebner._spair_loop

    def spy(*args, **kwargs):
        runs.append(loop(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(groebner, "_spair_loop", spy)
    kaehler_module(build_standard(6, (1, 0)))
    assert [(len(basis), len(aside)) for basis, aside in runs] == [(6, 8), (6, 0), (44, 27)]
    assert _key_digest([elems for run in runs for elems in run]) == (
        "539dfa54e72ce99d94ba5e3c7b5f6a00e082baa4f9dc1e2999f672f74189d9e8"
    )


@pytest.mark.parametrize("key, digest", [
    ((4, 2), "4bf7dae523d8feef873050dc86beab4dc39988f989cefc8784323bce65ba8fc5"),
    ((6, (1, 0)), "ac303b58ae168b5372fac235d90aee452dd6504983baebf8ca04946ca6577465"),
])
def test_kaehler_relation_basis_keys_are_pinned(key, digest):
    """The reduced relation basis of the kaehler module: it depends only on
    the relation submodule, not on the relations that generate it."""
    from superconf.algebras import build_standard
    from superconf.multiplets import kaehler_module

    assert _key_digest([kaehler_module(build_standard(*key)).module.relation_gb()._internal]) == digest
