from fractions import Fraction

import pytest

from superconf.rings import FreeModule, ModuleElement, poly_ring


def test_printed_forms_pin_signs_fractions_constants_and_weighted_order():
    """The printed form feeds every `--json` ideal generator and basis string."""
    R, x, y, z = poly_ring("x", "y", "z", weights=[1, 2, 1])
    f = -(x * x * x) - x * y + Fraction(1, 2) * z * z + R.constant(3)
    assert str(f) == "-x^3 - x*y + 1/2*z^2 + 3"
    assert str(R.zero()) == "0"
    assert str(R.constant(Fraction(-2, 3))) == "-2/3"
    F = FreeModule(R, [0, 0])
    e = ModuleElement(F, {(0, (1, 0, 0)): Fraction(1), (1, (0, 0, 1)): Fraction(-1)})
    assert str(e) == "(x)*e0 + (-z)*e1"


def test_module_elements_times_scalars_and_ring_elements():
    R, x, y = poly_ring("x", "y")
    F = FreeModule(R, [0, 1])
    assert str(F.gen(1) * x * 2 + F.gen(0) * (y * y)) == "(y^2)*e0 + (2*x)*e1"
    assert 2 * x == x * 2 == x + x
    assert (x * y).degree() == 2 and (x * y).module == R.zero().module
    with pytest.raises(ValueError, match="ring element"):
        x * F.gen(0)
