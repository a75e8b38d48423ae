"""Named subgroup families of GL2(F_r).

Every family here is built twice over: once element-by-element from its
closed-form description, and once by closing a small natural generating
set.  verify_membership_formula checks the two agree.  The exception is
the octahedral group, the preimage of a projective S4 at every r: it is
built only from three generators, whose relations prove its order.
standard_sl2_part builds the determinant-one parts of the two Cartan
normalizers and g3 from closed forms, without the whole group.
"""

from functools import lru_cache

from .errors import CongruenceViolation
from .matgroup import IDENT, Mat, MatrixGroup, mat_mul, mat_pow
from .modfield import epsilon, generator, validate_modulus, _cube_set
from .ratcurves import _factor_positive

# ---- closed-form element sets ----


def _diagonal_elements(r: int) -> list[Mat]:
    return [(a, 0, 0, d) for a in range(1, r) for d in range(1, r)]


def _antidiagonal_elements(r: int) -> list[Mat]:
    return [(0, a, d, 0) for a in range(1, r) for d in range(1, r)]


def _nonsplit_elements(r: int) -> list[Mat]:
    e = epsilon(r)
    return [(a, e * b % r, b, a)
            for a in range(r) for b in range(r) if (a, b) != (0, 0)]


@lru_cache(maxsize=None)
def _nonsplit_generator(r: int) -> Mat:
    """Lex-first element of multiplicative order r^2 - 1 in the nonsplit torus.

    The torus has order r^2 - 1, so by Lagrange an element's order divides
    it, and is all of it exactly when m^((r^2 - 1)/p) is not the identity
    for each prime p dividing r^2 - 1.
    """
    full = r * r - 1
    cofactors = [full // p for p in _factor_positive(full)]
    for m in sorted(_nonsplit_elements(r)):
        if all(mat_pow(m, k, r) != IDENT for k in cofactors):
            return m
    raise AssertionError("nonsplit torus has no generator")  # unreachable


def _reflected(one: list[Mat], minus_one: list[Mat], r: int) -> list[Mat]:
    """The c in one, then diag(1, -1) c for the c in minus_one."""
    j: Mat = (1, 0, 0, r - 1)
    return one + [mat_mul(j, c, r) for c in minus_one]


# ---- public constructors ----


def borel(r: int) -> MatrixGroup:
    """Invertible upper-triangular matrices."""
    validate_modulus(r)
    g = generator(r)
    elements = [(a, b, 0, d) for a in range(1, r) for d in range(1, r) for b in range(r)]
    return MatrixGroup(r, elements, ((g, 0, 0, 1), (1, 0, 0, g), (1, 1, 0, 1)))


def split_cartan(r: int) -> MatrixGroup:
    validate_modulus(r)
    g = generator(r)
    return MatrixGroup(r, _diagonal_elements(r), ((g, 0, 0, 1), (1, 0, 0, g)))


def split_cartan_normalizer(r: int) -> MatrixGroup:
    validate_modulus(r)
    g = generator(r)
    elements = _diagonal_elements(r) + _antidiagonal_elements(r)
    return MatrixGroup(r, elements, ((g, 0, 0, 1), (1, 0, 0, g), (0, 1, 1, 0)))


def nonsplit_cartan(r: int) -> MatrixGroup:
    validate_modulus(r)
    return MatrixGroup(r, _nonsplit_elements(r), (_nonsplit_generator(r),))


def nonsplit_cartan_normalizer(r: int) -> MatrixGroup:
    validate_modulus(r)
    torus = _nonsplit_elements(r)
    generators = (_nonsplit_generator(r), (1, 0, 0, r - 1))
    return MatrixGroup(r, _reflected(torus, torus, r), generators)


def nonsplit_cartan_cubes_extended(r: int) -> MatrixGroup:
    """Cubes of the nonsplit torus, extended by the reflection diag(1, -1).

    The reflection normalizes the torus and preserves cubes, so the union
    of the cube subgroup with its reflected coset is a group.
    """
    validate_modulus(r)
    cubes = sorted({mat_pow(m, 3, r) for m in _nonsplit_elements(r)})
    generators = (mat_pow(_nonsplit_generator(r), 3, r), (1, 0, 0, r - 1))
    return MatrixGroup(r, _reflected(cubes, cubes, r), generators)


def cube_ratio_cartan(r: int) -> MatrixGroup:
    """Diagonal and antidiagonal matrices whose entry ratio is a cube.

    Only defined when r = 1 (mod 3); otherwise every unit is a cube and
    the family degenerates, so that case is rejected.
    """
    validate_modulus(r)
    if r % 3 != 1:
        raise CongruenceViolation(f"cube-ratio family needs r = 1 (mod 3), got r = {r}")
    cubes = _cube_set(r)
    elements = []
    for a in range(1, r):
        for b in range(1, r):
            if a * pow(b, -1, r) % r in cubes:
                elements.append((a, 0, 0, b))
                elements.append((0, a, b, 0))
    g = generator(r)
    g3 = pow(g, 3, r)
    return MatrixGroup(r, elements, ((g, 0, 0, g), (g3, 0, 0, 1), (0, 1, 1, 0)))


def octahedral_group(r: int) -> MatrixGroup:
    """The preimage in GL2(F_r) of a projective S4: <delta I, b, c>, order 24(r - 1).

    delta = generator(r).  A non-scalar m has projective order 2, 3 or 4
    when u = tr(m)^2 / det(m) is 0, 1 or 2.
    - c = (1, 1, -1, 1) has u = 4/2 = 2: projective order 4.
    - b = (p, q, q - 1, 1 - p), (p, q) the lexicographically first solution
      of p^2 - p + q^2 - q + 1 = 0 (mod r), has trace 1 and det 1: projective
      order 3 (at r = 3 it is unipotent).  Times 4 the conic reads
      (2p - 1)^2 + (2q - 1)^2 = -2, and every element of F_r is a sum of two
      squares, so it has a point mod every odd prime.
    - bc = (p - q, p + q, p + q - 2, q - p) has trace 0: projective order 2.
    So <b, c> maps onto a quotient of the (2, 3, 4) triangle group, S4, that
    has an element of order 4; the others (S3, C2, 1) have none, so the
    image is S4.  With the scalars it is the full preimage; at r = 3 that is
    GL2(F_3).
    """
    validate_modulus(r)
    p, q = next((p, q) for p in range(r) for q in range(r)
                if (p * p - p + q * q - q + 1) % r == 0)
    delta = generator(r)
    b = (p, q, (q - 1) % r, (1 - p) % r)
    return MatrixGroup.close(((delta, 0, 0, delta), b, (1, 1, r - 1, 1)), r)


# ---- registry ----

_BUILDERS = {
    "borel": borel,
    "split_cartan": split_cartan,
    "split_cartan_normalizer": split_cartan_normalizer,
    "nonsplit_cartan": nonsplit_cartan,
    "nonsplit_cartan_normalizer": nonsplit_cartan_normalizer,
    "g3": nonsplit_cartan_cubes_extended,
    "octahedral": octahedral_group,
    "cube_split": cube_ratio_cartan,
}

_ALIASES = {
    "cs": "split_cartan",
    "cs+": "split_cartan_normalizer",
    "cns": "nonsplit_cartan",
    "cns+": "nonsplit_cartan_normalizer",
    "cube": "cube_split",
}

KINDS = tuple(sorted(_BUILDERS))


def resolve_kind(kind: str) -> str:
    name = _ALIASES.get(kind, kind)
    if name not in _BUILDERS:
        raise KeyError(f"unknown group kind {kind!r}; known: {', '.join(KINDS)}")
    return name


def standard_group(kind: str, r: int) -> MatrixGroup:
    return _BUILDERS[resolve_kind(kind)](r)


# ---- determinant-one parts in closed form ----


def _norm_fibres(r: int) -> tuple[list[Mat], list[Mat]]:
    """The torus elements (a, eps b, b, a) of norm N = a^2 - eps b^2 = 1 and of N = -1.

    For each b the a with a^2 = eps b^2 + N are read from a square-root table.
    """
    e = epsilon(r)
    roots: dict[int, list[int]] = {}
    for a in range(r):
        roots.setdefault(a * a % r, []).append(a)
    return tuple([(a, e * b % r, b, a)
                  for b in range(r) for a in roots.get((e * b * b + n) % r, ())]
                 for n in (1, -1))


def _split_normalizer_sl2(r: int) -> MatrixGroup:
    inv = [0] + [pow(a, -1, r) for a in range(1, r)]
    elements = ([(a, 0, 0, inv[a]) for a in range(1, r)]
                + [(0, a, r - inv[a], 0) for a in range(1, r)])
    g = generator(r)
    return MatrixGroup(r, elements, ((g, 0, 0, inv[g]), (0, 1, r - 1, 0)))


def _nonsplit_normalizer_sl2(r: int) -> MatrixGroup:
    return MatrixGroup(r, _reflected(*_norm_fibres(r), r))


def _cubes_extended_sl2(r: int) -> MatrixGroup:
    fibres = _norm_fibres(r)
    if r != 3:
        k = (r * r - 1) // 3
        fibres = [[c for c in fibre if mat_pow(c, k, r) == IDENT] for fibre in fibres]
    return MatrixGroup(r, _reflected(*fibres, r))


_SL2_BUILDERS = {
    "split_cartan_normalizer": _split_normalizer_sl2,
    "nonsplit_cartan_normalizer": _nonsplit_normalizer_sl2,
    "g3": _cubes_extended_sl2,
}


def standard_sl2_part(kind: str, r: int) -> MatrixGroup:
    """standard_group(kind, r).sl2_part(), built from closed forms without the whole group.

    Covers the split and nonsplit Cartan normalizers and g3, under the
    names and aliases standard_group accepts; any other kind raises
    KeyError.  Write eps = epsilon(r), j = diag(1, -1) and N(c) = a^2 - eps b^2
    for the torus element c = (a, eps b, b, a), so det c = N(c) and
    det(j c) = -N(c).

    - Split: the normalizer is the diagonal diag(a, d) and antidiagonal
      antidiag(b, c) matrices, of determinants ad and -bc.  Determinant 1
      leaves diag(a, 1/a) and antidiag(a, -1/a), a in F_r^*: order 2(r - 1).
    - Nonsplit: the normalizer is the torus C and its reflected coset jC
      (the builder's (c, eps d, -d, -c) is j(c, eps d, d, c)).  Determinant
      1 leaves {c : N(c) = 1} and {jc : N(c) = -1}.  C is F_(r^2)^* and N is
      x -> x^(r+1), onto F_r^*, so each fibre has r + 1 elements: order
      2(r + 1).
    - g3: the builder's group is the cubes of C and their reflections j c,
      so determinant 1 leaves {c cube : N(c) = 1} and {jc : c cube,
      N(c) = -1}.  C is cyclic of order r^2 - 1; when 3 divides it, the
      cubes are the kernel of c -> c^((r^2 - 1)/3).  At r = 3 it does
      not, cubing is a bijection of C, and every element is a cube.

    The nonsplit and g3 parts take the greedy generating subset of their
    elements; the split part is generated by diag(g, 1/g), g =
    generator(r), and antidiag(1, -1).
    """
    name = resolve_kind(kind)
    if name not in _SL2_BUILDERS:
        raise KeyError(f"no closed-form SL2 part for {kind!r}; "
                       f"covered: {', '.join(sorted(_SL2_BUILDERS))}")
    validate_modulus(r)
    return _SL2_BUILDERS[name](r)


# order formulas, checked against construction in the test suite
ORDER_FORMULAS = {
    "borel": lambda r: r * (r - 1) ** 2,
    "split_cartan": lambda r: (r - 1) ** 2,
    "split_cartan_normalizer": lambda r: 2 * (r - 1) ** 2,
    "nonsplit_cartan": lambda r: r * r - 1,
    "nonsplit_cartan_normalizer": lambda r: 2 * (r * r - 1),
    "g3": lambda r: 2 * (r * r - 1) // 3 if r != 3 else 2 * (r * r - 1),
    "cube_split": lambda r: 2 * (r - 1) ** 2 // 3,
    "octahedral": lambda r: 24 * (r - 1),
}


def verify_membership_formula(kind: str, r: int) -> bool:
    """Check the generator closure equals the element-by-element set."""
    name = resolve_kind(kind)
    if name == "octahedral":
        raise ValueError(f"{name} has no closed-form membership description")
    built = _BUILDERS[name](r)
    closed = MatrixGroup.close(built.generators, r)
    return closed == built
