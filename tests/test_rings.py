from fractions import Fraction

import pytest

from superconf.groebner import ideal_gb
from superconf.rings import FreeModule, poly_ring


def test_printed_forms_pin_signs_fractions_constants_and_grevlex_order():
    """The printed form feeds every `--json` ideal generator and basis string."""
    R, x, y, z = poly_ring("x", "y", "z")
    f = -(x * x * x) - x * y + Fraction(1, 2) * z * z + R.constant(3)
    assert str(f) == "-x^3 - x*y + 1/2*z^2 + 3"
    assert str(R.zero()) == "0"
    assert str(R.constant(Fraction(-2, 3))) == "-2/3"
    F = FreeModule(R, [0, 0])
    e = F.gen(0) * x - F.gen(1) * z
    assert str(e) == "(x)*e0 + (-z)*e1"


def test_module_elements_times_scalars_and_ring_elements():
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [0, 1])
    assert str(F.gen(1) * x * 2 + F.gen(0) * (y * y)) == "(y^2)*e0 + (2*x)*e1"
    assert 2 * x == x * 2 == x + x
    assert (x * y).degree() == 2 and (x * y).module == R.zero().module
    with pytest.raises(ValueError, match="ring element"):
        x * F.gen(0)


def test_component_selects_one_coordinate_of_a_rank_two_element():
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [0, 1])
    e = F.gen(0) * (x * y - y * y) + F.gen(1) * (3 * x)
    assert e.component(0) == x * y - y * y
    assert e.component(1) == 3 * x
    assert e.component(0).module == R.zero().module
    assert F.zero().component(1) == R.zero()


def test_degree_adds_generator_degrees_to_term_degrees():
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [2, 0])
    e = F.gen(0) * y - F.gen(1) * (x * x * y)
    assert e.degree() == 3
    assert (F.gen(1) * x).degree() == 1
    assert F.zero().degree() == 0
    assert R.zero().degree() == 0


def test_non_homogeneous_elements_and_relations_are_rejected():
    from superconf.resolutions import PresentedModule

    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [2, 0])
    with pytest.raises(ValueError, match="homogeneous"):
        (F.gen(0) + F.gen(1)).degree()
    with pytest.raises(ValueError, match="homogeneous"):
        (x - y * y).degree()
    assert len(PresentedModule(R, [2, 0], [F.gen(0) * x - F.gen(1) * (x * y * y)]).relations) == 1
    with pytest.raises(ValueError, match="homogeneous"):
        PresentedModule(R, [2, 0], [F.gen(0) * x - F.gen(1) * x])


def test_arithmetic_across_rings_or_modules_is_rejected():
    """Terms of two rings, or of two modules, are laid out differently, so a
    product or a sum across them raises instead of mixing the layouts."""
    R, x, _y = poly_ring("x", "y")
    _, a, b, _ = poly_ring("a", "b", "c")
    for product in (lambda: x * a, lambda: a * x, lambda: x * a * b, lambda: ideal_gb(R, [x * a])):
        with pytest.raises(ValueError, match="ring element"):
            product()
    with pytest.raises(ValueError, match="different modules"):
        FreeModule(R, [0, 0]).gen(1) + FreeModule(R, [0]).gen(0)
    with pytest.raises(ValueError, match="different modules"):
        FreeModule(R, [0]).gen(0) - FreeModule(R, [1]).gen(0)
    with pytest.raises(ValueError, match="different modules"):
        x + a
    # an equal ring lays its terms out the same way
    _, x2, _ = poly_ring("x", "y")
    assert x * x2 == x * x and x + x2 == 2 * x
