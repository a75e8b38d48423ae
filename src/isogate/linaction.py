"""Action of matrix groups on nonzero vectors and on lines in F_r^2."""

from __future__ import annotations

from dataclasses import dataclass

from .matgroup import Mat, MatrixGroup, is_scalar, mat_mul


def _apply(m: Mat, v: tuple[int, int], r: int) -> tuple[int, int]:
    return ((m[0] * v[0] + m[1] * v[1]) % r, (m[2] * v[0] + m[3] * v[1]) % r)


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[frozenset, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbits(group: MatrixGroup) -> OrbitDecomposition:
    """Orbit partition of the nonzero vectors of F_r^2 under the group."""
    r = group.r
    gens = group.generators
    remaining = {(x, y) for x in range(r) for y in range(r)} - {(0, 0)}
    parts = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = _apply(g, v, r)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        parts.append(frozenset(orbit))
        remaining -= orbit
    parts.sort(key=lambda s: (len(s), min(s)))
    return OrbitDecomposition(tuple(parts), tuple(len(s) for s in parts))


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


def _line_key(v: tuple[int, int], r: int) -> tuple[int, int]:
    x, y = v
    if x != 0:
        return (1, y * pow(x, -1, r) % r)
    return (0, 1)


def fixed_lines(group: MatrixGroup) -> tuple[tuple[int, int], ...]:
    """Lines through the origin fixed by every element, as representative vectors.

    Checking the generators suffices: the stabilizer of a line is a subgroup.
    """
    r = group.r
    gens = group.generators
    out = []
    for v in _line_reps(r):
        if all(_line_key(_apply(g, v, r), r) == v for g in gens):
            out.append(v)
    return tuple(out)


# ---- projective image ----

PROJECTIVE_CLASSES = ("cyclic", "dihedral", "A4", "S4", "A5", "PSL2", "PGL2", "other")


@dataclass(frozen=True)
class ProjectiveImage:
    order: int
    kind: str
    permutations: tuple[tuple[int, ...], ...]

    def element_orders(self) -> tuple[int, ...]:
        return tuple(sorted(_perm_order(p) for p in self.permutations))


def _perm_order(p: tuple[int, ...]) -> int:
    n = 1
    q = p
    ident = tuple(range(len(p)))
    while q != ident:
        q = tuple(p[i] for i in q)
        n += 1
    return n


def _perm_mul(p, q):
    # apply q first, then p
    return tuple(p[i] for i in q)


def projective_image(group: MatrixGroup) -> ProjectiveImage:
    """Image of the group in PGL2, realized as permutations of the r+1 lines.

    Classification rules, checked in order: PGL2 and PSL2 by order (PSL2
    additionally perfect), then A5/S4/A4 by order and center/element-order
    tests, then cyclic, then dihedral (a cyclic index-2 subgroup inverted
    by an outside involution), else other.
    """
    r = group.r
    reps = _line_reps(r)
    index = {v: i for i, v in enumerate(reps)}
    perms = set()
    for m in group.elements:
        perms.add(tuple(index[_line_key(_apply(m, v, r), r)] for v in reps))
    n = len(perms)
    return ProjectiveImage(n, _classify(perms, n, r), tuple(sorted(perms)))


def _classify(perms, n: int, r: int) -> str:
    ident = tuple(range(r + 1))
    pgl_order = r * (r * r - 1)
    psl_order = pgl_order // 2
    if n == pgl_order:
        return "PGL2"
    if n == psl_order and _is_perfect(perms):
        return "PSL2"
    orders = {p: _perm_order(p) for p in perms}
    if n == 60 and _center_trivial(perms, ident):
        return "A5"
    if n == 24 and _center_trivial(perms, ident):
        return "S4"
    if n == 12 and 6 not in orders.values():
        return "A4"
    if max(orders.values()) == n:
        return "cyclic"
    if n % 2 == 0 and _is_dihedral(perms, orders, n):
        return "dihedral"
    return "other"


def _center_trivial(perms, ident) -> bool:
    for p in perms:
        if p == ident:
            continue
        if all(_perm_mul(p, q) == _perm_mul(q, p) for q in perms):
            return False
    return True


def _is_perfect(perms) -> bool:
    """Whether the permutation group equals its own commutator subgroup."""
    plist = sorted(perms)
    inv = {}
    for p in plist:
        q = [0] * len(p)
        for i, pi in enumerate(p):
            q[pi] = i
        inv[p] = tuple(q)
    comms = set()
    for p in plist:
        for q in plist:
            comms.add(_perm_mul(_perm_mul(p, q), _perm_mul(inv[p], inv[q])))
    # close the commutator set under multiplication
    frontier = list(comms)
    while frontier:
        x = frontier.pop()
        for c in list(comms):
            y = _perm_mul(x, c)
            if y not in comms:
                comms.add(y)
                frontier.append(y)
    return len(comms) == len(perms)


def _is_dihedral(perms, orders, n: int) -> bool:
    half = n // 2
    rotations = [p for p, k in orders.items() if k == half]
    if not rotations:
        return False
    c = rotations[0]
    cyc = {c}
    x = c
    while True:
        x = _perm_mul(x, c)
        if x in cyc:
            break
        cyc.add(x)
    if len(cyc) != half:
        return False
    c_inv = [0] * len(c)
    for i, ci in enumerate(c):
        c_inv[ci] = i
    c_inv = tuple(c_inv)
    for s, k in orders.items():
        if k == 2 and s not in cyc:
            if _perm_mul(_perm_mul(s, c), s) == c_inv:
                return True
    return False
