"""Action of matrix groups on nonzero vectors and on lines in F_r^2."""

from __future__ import annotations

from dataclasses import dataclass

from .matgroup import Mat, MatrixGroup


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[frozenset, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def _code_permutation(m: Mat, r: int) -> list[int]:
    """The action of m on the codes x*r + y of the vectors (x, y), as a list."""
    a, b, c, d = m
    return [(a * x + b * y) % r * r + (c * x + d * y) % r
            for x in range(r) for y in range(r)]


def orbits(group: MatrixGroup) -> OrbitDecomposition:
    """Orbit partition of the nonzero vectors of F_r^2 under the group.

    A vector (x, y) is handled as its code x*r + y, and each generator as
    a permutation of the r^2 codes.  Codes ascend in the order of the
    tuples they stand for, so scanning seeds by code takes the least
    vector not yet reached, and the parts and their (size, least vector)
    order are those of a search over tuples.  Each orbit is one list that
    the search extends while reading it, and a code is read back as
    divmod(code, r).
    """
    r = group.r
    perms = [_code_permutation(g, r) for g in group.generators]
    seen = [False] * (r * r)
    seen[0] = True
    parts = []
    for seed in range(1, r * r):
        if seen[seed]:
            continue
        seen[seed] = True
        orbit = [seed]
        for v in orbit:
            for p in perms:
                w = p[v]
                if not seen[w]:
                    seen[w] = True
                    orbit.append(w)
        parts.append((len(orbit), seed, frozenset(divmod(code, r) for code in orbit)))
    parts.sort()
    return OrbitDecomposition(tuple(s for _, _, s in parts),
                              tuple(n for n, _, _ in parts))


def acts_freely(group: MatrixGroup) -> bool:
    """No non-identity element fixes a nonzero vector.

    An element fixes a nonzero vector exactly when 1 is an eigenvalue,
    so det(g - I) = 0 is the whole test.  Equivalent to every orbit
    having size equal to the group order.
    """
    r = group.r
    for a, b, c, d in group.elements:
        if (a, b, c, d) == (1, 0, 0, 1):
            continue
        if ((a - 1) * (d - 1) - b * c) % r == 0:
            return False
    return True


def _line_reps(r: int) -> list[tuple[int, int]]:
    return [(1, t) for t in range(r)] + [(0, 1)]


def _line_index(m: Mat, v: tuple[int, int], r: int) -> int:
    """Position in _line_reps(r) of the image under m of the line through v:
    t for the line through (1, t), r for the line through (0, 1)."""
    a, b, c, d = m
    x, y = v
    u = (a * x + b * y) % r
    return (c * x + d * y) * pow(u, -1, r) % r if u else r


def fixed_lines(group: MatrixGroup) -> tuple[tuple[int, int], ...]:
    """Lines through the origin fixed by every element, as representative vectors.

    Checking the generators suffices: the stabilizer of a line is a subgroup.
    """
    r = group.r
    gens = group.generators
    return tuple(v for i, v in enumerate(_line_reps(r))
                 if all(_line_index(g, v, r) == i for g in gens))


# ---- projective image ----

@dataclass(frozen=True)
class ProjectiveImage:
    order: int
    kind: str
    permutations: tuple[tuple[int, ...], ...]


def _perm_order(p: tuple[int, ...]) -> int:
    n = 1
    q = p
    ident = tuple(range(len(p)))
    while q != ident:
        q = tuple(p[i] for i in q)
        n += 1
    return n


def projective_image(group: MatrixGroup) -> ProjectiveImage:
    """Image of the group in PGL2, realized as permutations of the r+1 lines.

    The kind is read from n = |image| and top = the largest element order,
    by the first rule that applies:

        n = r(r^2-1)               PGL2
        2n = r(r^2-1), r > 3       PSL2 (its only index-2 subgroup)
        (n, top) = (12, 3)         A4
        (n, top) = (24, 4)         S4
        (n, top) = (60, 5)         A5
        top = n                    cyclic
        2 top = n                  dihedral
        otherwise                  other

    By Dickson's list (Serre 1972, section 2) a subgroup of PGL2(F_r) is
    cyclic, dihedral, A4, S4, A5, PSL2, PGL2, or lies in a Borel image
    F_r x| C_d; among groups of these orders the pair (n, top) tells the
    kinds apart.  PSL2(F_3) is A4 and reads "A4".
    """
    r = group.r
    reps = _line_reps(r)
    perms = {tuple(_line_index(m, v, r) for v in reps) for m in group.elements}
    n = len(perms)
    return ProjectiveImage(n, _classify(perms, n, r), tuple(sorted(perms)))


def _classify(perms, n: int, r: int) -> str:
    pgl_order = r * (r * r - 1)
    if n == pgl_order:
        return "PGL2"
    if 2 * n == pgl_order and r > 3:
        return "PSL2"
    top = max(_perm_order(p) for p in perms)
    kind = {(12, 3): "A4", (24, 4): "S4", (60, 5): "A5"}.get((n, top))
    if kind is not None:
        return kind
    if top == n:
        return "cyclic"
    if 2 * top == n:
        return "dihedral"
    return "other"
