"""Independent checks of isogate's outputs.

Nothing here calls isogate.  Square classes come from sympy's factorint,
point counts from a brute-force Legendre-symbol sum, and rational roots
from sympy's factorization over Q.  sympy is only imported by the
benchmark; it is no runtime dependency of the package.
"""

from __future__ import annotations

from fractions import Fraction

# every rational point on these rank-0 curves is torsion
RATIONAL_TORSION = {"X0(11)": 5, "X0(14)": 6, "X0(20)": 6}

# subgroup_classes(r, k).count for each k up to the workload's k
CLASS_COUNTS = {5: (15, 46, 47), 7: (23, 83, 83), 11: (33, 113)}


def squarefree_part(n: int) -> int:
    import sympy
    out = -1 if n < 0 else 1
    for p, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= int(p)
    return out


def legendre(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def count_completed_square(b2: int, b4: int, b6: int, q: int) -> int:
    """#E(F_q) for y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, point at infinity included."""
    return q + 1 + sum(legendre(((4 * x + b2) * x + 2 * b4) * x + b6, q)
                       for x in range(q))


def short_trace(a: int, b: int, q: int) -> int:
    """a_q of y^2 = x^3 + a x + b at an odd prime q of good reduction."""
    return -sum(legendre((x * x + a) * x + b, q) for x in range(q))


def hasse_ok(count: int, q: int) -> bool:
    return (count - q - 1) ** 2 <= 4 * q


def cubic_rational_roots(a: int, b: int) -> list[Fraction]:
    """Rational roots of x^3 + a x + b."""
    import sympy
    x = sympy.Symbol("x")
    roots = []
    for factor, _ in sympy.factor_list(x ** 3 + a * x + b)[1]:
        poly = sympy.Poly(factor, x)
        if poly.degree() == 1:
            c1, c0 = (int(c) for c in poly.all_coeffs())
            roots.append(Fraction(-c0, c1))
    return sorted(set(roots))


def has_root_mod(a: int, b: int, q: int) -> bool:
    return any(((x * x + a) * x + b) % q == 0 for x in range(q))


def family_parameters(j: int) -> list[Fraction]:
    """Rational t with (t + 16)^3 / t = j, for integral j.

    Cleared, t^3 + 48 t^2 + (768 - j) t + 4096 = 0 is monic, so every
    rational root is an integer dividing 4096.
    """
    out = []
    for k in range(13):
        for t in (2 ** k, -(2 ** k)):
            if (t + 16) ** 3 == j * t:
                out.append(Fraction(t))
    return sorted(out)


def odd_primes_upto(n: int) -> list[int]:
    import sympy
    return [int(p) for p in sympy.primerange(3, n + 1)]


def split_prime_ok(q: int, r: int) -> bool:
    import sympy
    return q % r == 1 and bool(sympy.isprime(q))
