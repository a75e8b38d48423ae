from itertools import combinations_with_replacement

import pytest

from isogate.errors import CompositeModulus, ZeroInput
from isogate.modfield import (element_order, epsilon, generates_units,
                              generator, is_cube, is_square, supported_moduli,
                              validate_modulus)


def test_validate_modulus():
    assert validate_modulus(7) == 7
    with pytest.raises(CompositeModulus):
        validate_modulus(9)
    with pytest.raises(CompositeModulus):
        validate_modulus(2)
    with pytest.raises(CompositeModulus):
        validate_modulus(1)
    with pytest.raises(CompositeModulus):
        validate_modulus(101)


def test_supported_moduli():
    sympy = pytest.importorskip("sympy")
    assert supported_moduli() == tuple(sympy.primerange(3, 98))


def test_is_square():
    assert is_square(1, 5)
    assert not is_square(2, 5)
    assert is_square(2, 17)  # 6^2 = 36 = 2 mod 17
    assert is_square(6, 5)
    assert is_square(-1, 5)
    with pytest.raises(ZeroInput):
        is_square(0, 5)
    with pytest.raises(ZeroInput):
        is_square(10, 5)


def test_square_count_bullet():
    for r in supported_moduli():
        count = sum(1 for a in range(1, r) if is_square(a, r))
        assert count == (r - 1) // 2


def test_epsilon():
    assert epsilon(7) == 6
    assert epsilon(5) == 2
    assert epsilon(13) == 2
    assert epsilon(3) == 2
    assert epsilon(17) == 3


def test_epsilon_bullet():
    for r in supported_moduli():
        e = epsilon(r)
        assert not is_square(e, r)
        if r % 4 == 3:
            assert e == r - 1


def test_is_cube():
    assert is_cube(8, 13)
    assert not is_cube(2, 13)
    assert is_cube(3, 5)  # cubing is a bijection when r = 2 mod 3
    with pytest.raises(ZeroInput):
        is_cube(0, 7)


def test_cube_count_bullet():
    for r in supported_moduli():
        if r == 3:
            continue
        count = sum(1 for a in range(1, r) if is_cube(a, r))
        if r % 3 == 2:
            assert count == r - 1
        else:
            assert count == (r - 1) // 3


def test_element_order():
    assert element_order(1, 7) == 1
    assert element_order(6, 7) == 2
    assert element_order(2, 7) == 3
    assert element_order(3, 7) == 6
    with pytest.raises(ZeroInput):
        element_order(0, 7)


def test_generator():
    for r in (5, 7, 11, 13, 37):
        g = generator(r)
        assert element_order(g, r) == r - 1
        assert all(element_order(h, r) < r - 1 for h in range(2, g))


def test_generates_units():
    assert generates_units([3], 7)
    assert not generates_units([2], 7)
    assert generates_units([2, 6], 7)
    assert not generates_units([], 7)
    assert not generates_units([1], 7)
    assert not generates_units([7, 14], 7)
    assert generates_units([3, 0], 7)


def _reference_generates_units(values, r):
    """Breadth-first closure of the units under multiplication."""
    vals = [v % r for v in values if v % r]
    seen, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for v in vals:
            y = x * v % r
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == r - 1


def test_generates_units_matches_closure():
    for r in (5, 7, 11, 13):
        for size in (0, 1, 2):
            for values in combinations_with_replacement(range(1, r), size):
                assert generates_units(values, r) == _reference_generates_units(values, r)
