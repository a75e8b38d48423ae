import pytest

from isogate.errors import CongruenceViolation
from isogate.linaction import projective_image
from isogate.matgroup import IDENT, MatrixGroup, are_conjugate, is_applicable, mat_mul
from isogate.modfield import epsilon, supported_moduli
from isogate.stdgroups import (KINDS, ORDER_FORMULAS, _nonsplit_elements,
                               _nonsplit_generator,
                               borel, cube_ratio_cartan,
                               nonsplit_cartan, nonsplit_cartan_cubes_extended,
                               nonsplit_cartan_normalizer,
                               octahedral_group, resolve_kind, split_cartan,
                               split_cartan_normalizer, standard_group,
                               standard_sl2_part, verify_membership_formula)

_SWEEP = tuple(r for r in supported_moduli() if r <= 37)

# hand-picked generators of an octahedral group at one modulus each, the
# reference the general construction is conjugated onto
_OCTAHEDRAL_TABLES = {
    5: ((2, 0, 0, 1), (1, 0, 0, 2), (0, 4, 1, 0), (1, 1, 1, 4)),
    13: ((2, 0, 0, 2), (2, 0, 0, 3), (0, 12, 1, 0), (1, 1, 12, 1)),
}


def _valid_moduli(kind):
    if kind == "cube_split":
        return tuple(r for r in _SWEEP if r % 3 == 1)
    return _SWEEP


def test_examples():
    assert nonsplit_cartan_normalizer(7).order == 96
    assert nonsplit_cartan_cubes_extended(5).order == 16
    assert octahedral_group(13).order == 288
    assert octahedral_group(5).order == 96
    assert borel(5).order == 80


def test_order_formula_bullet():
    for kind in KINDS:
        formula = ORDER_FORMULAS[kind]
        for r in _valid_moduli(kind):
            assert standard_group(kind, r).order == formula(r), (kind, r)


def test_sl2_order_bullet():
    for r in _SWEEP:
        assert split_cartan_normalizer(r).sl2_part().order == 2 * (r - 1)
        assert nonsplit_cartan_normalizer(r).sl2_part().order == 2 * (r + 1)
        if r % 3 == 2:
            part = nonsplit_cartan_cubes_extended(r).sl2_part()
            assert part.order == 2 * (r + 1) // 3


def test_applicability_bullet():
    for r in _SWEEP:
        for kind in ("nonsplit_cartan_normalizer", "split_cartan_normalizer",
                     "borel"):
            assert is_applicable(standard_group(kind, r)), (kind, r)


def _displayed_sl2_normalizer(r):
    # diag(a, 1/a) together with antidiag(a, -1/a)
    elements = []
    for a in range(1, r):
        ai = pow(a, -1, r)
        elements.append((a, 0, 0, ai))
        elements.append((0, a, -ai % r, 0))
    return MatrixGroup(r, elements)


def test_displayed_group_conjugacy_bullet():
    for r in (5, 7, 11, 13):
        part = split_cartan_normalizer(r).sl2_part()
        displayed = _displayed_sl2_normalizer(r)
        assert part.order == displayed.order == 2 * (r - 1)
        assert are_conjugate(part, displayed) is not None


def test_membership_formula():
    assert verify_membership_formula("nonsplit_cartan_normalizer", 11)
    assert verify_membership_formula("split_cartan_normalizer", 7)
    assert verify_membership_formula("g3", 11)
    for kind in KINDS:
        if kind == "octahedral":
            continue
        for r in (5, 7, 13):
            if kind == "cube_split" and r % 3 != 1:
                continue
            assert verify_membership_formula(kind, r), (kind, r)
    with pytest.raises(ValueError):
        verify_membership_formula("octahedral", 13)


def test_nonsplit_membership_formulas_at_every_supported_prime():
    for r in supported_moduli():
        assert verify_membership_formula("nonsplit_cartan_normalizer", r), r
        assert verify_membership_formula("g3", r), r


def _reflected_torus(r):
    """The coset diag(1, -1) C of the nonsplit torus C, by its direct formula."""
    e = epsilon(r)
    return [(c, e * d % r, -d % r, -c % r)
            for c in range(r) for d in range(r) if (c, d) != (0, 0)]


def test_nonsplit_normalizer_is_the_torus_and_its_reflected_coset():
    for r in supported_moduli():
        expected = tuple(sorted(_nonsplit_elements(r) + _reflected_torus(r)))
        assert nonsplit_cartan_normalizer(r).elements == expected, r


def test_kind_resolution():
    assert resolve_kind("cns+") == "nonsplit_cartan_normalizer"
    assert resolve_kind("cs") == "split_cartan"
    assert resolve_kind("cube") == "cube_split"
    assert resolve_kind("borel") == "borel"
    with pytest.raises(KeyError):
        resolve_kind("weil")


def test_kind_errors():
    with pytest.raises(CongruenceViolation):
        cube_ratio_cartan(5)


def test_octahedral_order_at_every_supported_prime():
    for r in supported_moduli():
        assert octahedral_group(r).order == 24 * (r - 1), r
    # PGL2(F_3) is S4 itself
    assert octahedral_group(3) == MatrixGroup.full(3)


def test_octahedral_projective_image_is_s4():
    for r in _SWEEP:
        if r >= 5:
            image = projective_image(octahedral_group(r))
            assert (image.order, image.kind) == (24, "S4"), r


@pytest.mark.parametrize("r", sorted(_OCTAHEDRAL_TABLES))
def test_octahedral_group_is_conjugate_to_the_tables(r):
    table = MatrixGroup.close(_OCTAHEDRAL_TABLES[r], r)
    assert are_conjugate(octahedral_group(r), table) is not None


def test_nonsplit_shape():
    # eq-style membership: (a, eps*b; b, a) with eps = -1 for r = 3 mod 4
    g = nonsplit_cartan(7)
    assert (2, 0, 0, 2) in g
    assert (0, 6, 1, 0) in g  # a=0, b=1, eps = 6
    assert (1, 1, 1, 1) not in g


def test_cube_extended_structure():
    g5 = nonsplit_cartan_cubes_extended(5)
    torus = set(nonsplit_cartan(5).elements)
    inside = [m for m in g5 if m in torus]
    assert len(inside) == (5 * 5 - 1) // 3
    assert g5.order == 2 * len(inside)


# ---- the nonsplit generator by its prime-divisor order test ----

def _generator_by_multiplying(r):
    """The lex-first element of order r^2 - 1, each order found by repeated products."""
    for m in sorted(_nonsplit_elements(r)):
        k, x = 1, m
        while x != IDENT:
            x = mat_mul(x, m, r)
            k += 1
        if k == r * r - 1:
            return m


def test_nonsplit_generator_matches_the_multiplying_scan():
    for r in _SWEEP:
        assert _nonsplit_generator(r) == _generator_by_multiplying(r), r


def test_nonsplit_generator_has_full_order_at_every_supported_prime():
    for r in supported_moduli():
        m = _nonsplit_generator(r)
        assert m in _nonsplit_elements(r)
        assert MatrixGroup.close((m,), r).order == r * r - 1, r


# ---- determinant-one parts from their closed forms ----

_SL2_KINDS = ("split_cartan_normalizer", "nonsplit_cartan_normalizer", "g3")


def test_standard_sl2_part_matches_the_filtered_group_at_every_supported_prime():
    for r in supported_moduli():
        for kind in _SL2_KINDS:
            part = standard_sl2_part(kind, r)
            assert part == standard_group(kind, r).sl2_part(), (kind, r)
            assert MatrixGroup.close(part.generators, r) == part, (kind, r)
        assert standard_sl2_part("cs+", r).order == 2 * (r - 1)
        assert standard_sl2_part("cns+", r).order == 2 * (r + 1)


def test_standard_sl2_part_accepts_the_aliases():
    for alias, kind in (("cs+", "split_cartan_normalizer"),
                        ("cns+", "nonsplit_cartan_normalizer")):
        assert standard_sl2_part(alias, 11) == standard_sl2_part(kind, 11)


@pytest.mark.parametrize("kind", ["borel", "cs", "cns", "octahedral", "cube", "weil"])
def test_standard_sl2_part_rejects_other_kinds(kind):
    with pytest.raises(KeyError, match="g3"):
        standard_sl2_part(kind, 7)


def test_line_claims_build_no_whole_group(monkeypatch):
    from isogate import claims, stdgroups
    from isogate.claims import run_claim

    def refuse(*args):
        raise AssertionError("whole group built")

    monkeypatch.setattr(stdgroups, "standard_group", refuse)
    monkeypatch.setattr(claims, "standard_group", refuse)
    monkeypatch.setattr(MatrixGroup, "sl2_part", refuse)
    for claim in ("cartan-lemma", "g3-orbits"):
        assert run_claim(claim).status == "pass", claim
