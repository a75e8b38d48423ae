import importlib
import pathlib
import tempfile
import time

from isogate.claims import FAMILY_J, NO_TWO_TORSION_J, run_claim
from isogate.cyclo import is_square_in_cyclotomic, full_two_torsion_over_cyclotomic
from isogate.gatefinder import find_gate_groups, plus_minus_related
from isogate.linaction import acts_freely, fixed_lines, orbits, projective_image
from isogate.matgroup import gl2_order, is_applicable, mat_det, mat_trace
from isogate.modcurve import named_curve, torsion_bound_cyclotomic, two_division_shape
from isogate.ratcurves import (certificate_criteria, disc_square_class_of_j,
                               family_membership, parse_rational_expr,
                               two_division_cubic, two_torsion_family_j)
from isogate.stdgroups import (cube_ratio_cartan, nonsplit_cartan_cubes_extended,
                               nonsplit_cartan_normalizer, octahedral_group,
                               split_cartan_normalizer)
from isogate.subgroup_enum import subgroup_classes

_ODD_PRIMES_37 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_criterion_01_cartan_normalizer_actions():
    start = time.monotonic()
    for r in _ODD_PRIMES_37:
        for build, order in ((split_cartan_normalizer, 2 * (r - 1)),
                             (nonsplit_cartan_normalizer, 2 * (r + 1))):
            part = build(r).sl2_part()
            assert part.order == order, (r, build.__name__)
            assert acts_freely(part)
            assert set(orbits(part).sizes) == {order}
            assert fixed_lines(part) == ()
    assert time.monotonic() - start < 5


def test_criterion_02_cube_torus_orbits():
    start = time.monotonic()
    moduli = (5, 11, 17, 23, 29)
    computed_fixed = {}
    expected_fixed = {}
    for r in moduli:
        part = nonsplit_cartan_cubes_extended(r).sl2_part()
        expected_order = 2 * (r + 1) // 3
        assert part.order == expected_order, r
        assert acts_freely(part)
        assert set(orbits(part).sizes) == {expected_order}
        computed_fixed[r] = tuple(fixed_lines(part))
        # On a fixed line the free action is a faithful character into
        # F_r^*, so the order 2(r+1)/3 divides r - 1; 3(r - 1) = 2k(r + 1)
        # forces k = 1, i.e. order r - 1, which holds only at r = 5.  There
        # the part is cyclic of order 4, generated by w with w^2 = -I and
        # eigenvalues 2 != 3 = 2^-1 in F_5, so exactly its two eigenlines
        # are fixed.
        expected_fixed[r] = 2 if expected_order == r - 1 else 0
    assert time.monotonic() - start < 5
    assert {r: len(lines) for r, lines in computed_fixed.items()} == expected_fixed
    assert expected_fixed == {5: 2, 11: 0, 17: 0, 23: 0, 29: 0}
    assert set(computed_fixed[5]) == {(1, 0), (0, 1)}


def test_criterion_03_gate_search():
    start = time.monotonic()
    assert len(find_gate_groups(5).groups) == 1
    seven = find_gate_groups(7)
    assert len(seven.groups) == 2
    assert sorted(seven.indices) == [56, 112]
    assert seven.plus_minus_pairs == ((0, 1),)
    assert plus_minus_related(seven.groups[0], seven.groups[1])
    assert sorted(find_gate_groups(11).indices) == [132, 264]
    assert sorted(find_gate_groups(13).indices) == [182, 546]
    assert time.monotonic() - start < 600


def _gate_shaped(group):
    return (group.order < gl2_order(group.r)
            and is_applicable(group)
            and not fixed_lines(group)
            and bool(fixed_lines(group.sl2_part())))


def test_criterion_04_gate_search_completeness():
    start = time.monotonic()
    for r in (5, 7):
        result = find_gate_groups(r)
        by_level = {}
        for level in (2, 3):
            by_level[level] = [cls for cls in subgroup_classes(r, level).classes
                               if _gate_shaped(cls)]
        # the filtered class count stabilizes from 2 to 3 generators
        assert len(by_level[2]) == len(by_level[3]), r
        enumerated = by_level[3]
        assert len(enumerated) == len(result.groups), r
        from isogate.matgroup import are_conjugate
        for cls in enumerated:
            matches = [g for g in result.groups if are_conjugate(cls, g)]
            assert len(matches) == 1, (r, cls.order)
    assert time.monotonic() - start < 900


def test_criterion_05_cube_split_lines():
    start = time.monotonic()
    for r in (7, 13, 19, 31, 37):
        assert fixed_lines(cube_ratio_cartan(r).sl2_part()) == (), r
    assert time.monotonic() - start < 5


def test_criterion_06_order288_orbits():
    group = octahedral_group(13)
    assert group.order == 288
    part = group.sl2_part()
    decomposition = orbits(part)
    assert len(decomposition.sizes) == 7
    assert set(decomposition.sizes) == {24}


def test_criterion_07_octahedral_projective_image():
    image = projective_image(octahedral_group(5))
    assert (image.order, image.kind) == (24, "S4")


def test_criterion_08_disc_square_classes():
    start = time.monotonic()
    cases = (
        ("-3^3*5^3", -7),
        ("3^3*5^3*17^3", 7),
        ("-17*373^3/2^17", -10),
        ("-17^2*101^3/2", -10),
        ("-7*11^3", -5),
        ("-7*137^3*2083^3", -5),
    )
    for expr, expected in cases:
        assert disc_square_class_of_j(parse_rational_expr(expr)) == expected, expr
    assert time.monotonic() - start < 1


def test_criterion_09_cyclotomic_square_rules():
    assert is_square_in_cyclotomic(-7, 7)
    assert not is_square_in_cyclotomic(7, 7)
    assert not is_square_in_cyclotomic(-5, 17)
    assert not is_square_in_cyclotomic(-10, 17)
    assert not is_square_in_cyclotomic(-5, 37)
    assert not is_square_in_cyclotomic(-10, 37)


def test_criterion_10_full_two_torsion_decisions():
    cases = (
        ("-3^3*5^3", 7, "yes"),
        ("3^3*5^3*17^3", 7, "no"),
        ("-11^2", 11, "no"),
    )
    for expr, r, verdict in cases:
        decision = full_two_torsion_over_cyclotomic(parse_rational_expr(expr), r)
        assert decision.verdict == verdict, expr


def test_criterion_11_two_torsion_family():
    start = time.monotonic()
    for expr in FAMILY_J:
        j = parse_rational_expr(expr)
        roots = family_membership(j)
        assert roots, expr
        assert all(two_torsion_family_j(t) == j for t in roots), expr
    for expr in NO_TWO_TORSION_J[:7]:
        j = parse_rational_expr(expr)
        shape = two_division_cubic(j)
        assert shape.shape == "irreducible", expr
        assert shape.witness_prime is not None, expr
    assert time.monotonic() - start < 10


def test_criterion_12_surjectivity_certificates():
    start = time.monotonic()
    report = run_claim("surjectivity")
    assert report.status == "pass", report.computed
    # soundness: no proper subgroup class passes all four criteria
    for r in (5, 7, 11, 13):
        for cls in subgroup_classes(r, 2).classes:
            pairs = [(mat_trace(m, r), mat_det(m, r)) for m in cls.elements]
            flags = certificate_criteria(pairs, r)
            assert not all(ok for _, ok in flags), (r, cls.order)
    assert time.monotonic() - start < 300


def test_criterion_13_torsion_bounds():
    start = time.monotonic()
    reports = {
        label: torsion_bound_cyclotomic(named_curve(label), r)
        for label, r in (("X0(14)", 7), ("X0(20)", 5), ("X0(11)", 11))
    }
    for report in reports.values():
        assert report.caveat == "upper bound only — rank not verified"
    assert reports["X0(14)"].rational_points_found == 6
    assert reports["X0(20)"].rational_points_found == 6
    assert reports["X0(11)"].rational_points_found == 5
    shape = two_division_shape(named_curve("X0(14)"))
    assert (shape.shape, shape.disc_class) == ("one_rational_root", -7)
    assert time.monotonic() - start < 30
    computed = {label: rep.structure_bound for label, rep in reports.items()}
    assert computed == {"X0(14)": 12, "X0(20)": 6, "X0(11)": 5}, computed
    # direct counting yields gcds strictly above the rational torsion orders
    gcds = {label: rep.gcd_bound for label, rep in reports.items()}
    assert gcds == {"X0(14)": 36, "X0(20)": 12, "X0(11)": 25}, gcds


_BULLET_MANIFEST = {
    "test_claims": ("test_run_all_determinism_bullet",),
    "test_cyclo": (
        "test_cm_table_subsets_bullet",
        "test_square_multiplier_invariance_bullet",
        "test_subfield_one_mod_four_bullet",
        "test_twist_invariance_by_construction_bullet",
    ),
    "test_gatefinder": (
        "test_conjugation_stability_bullet",
        "test_index_arithmetic_bullet",
        "test_soundness_bullet",
    ),
    "test_linaction": (
        "test_fixed_line_orbit_bound_bullet",
        "test_fixed_lines_equivariance_bullet",
        "test_orbit_stabilizer_bullet",
        "test_partition_bullet",
        "test_projective_s4_bullet",
    ),
    "test_matgroup": (
        "test_conjugacy_rejector_agreement_bullet",
        "test_is_applicable_conjugation_invariant_bullet",
        "test_lagrange_bullet",
        "test_sl2_part_idempotent_monotone_bullet",
    ),
    "test_modcurve": (
        "test_count_scan_agreement_bullet",
        "test_hasse_bullet",
        "test_sandwich_bullet",
        "test_torsion_bound_monotonicity_bullet",
    ),
    "test_modfield": (
        "test_cube_count_bullet",
        "test_epsilon_bullet",
        "test_square_count_bullet",
    ),
    "test_ratcurves": (
        "test_certificate_soundness_bullet",
        "test_disc_identity_bullet",
        "test_family_roots_bullet",
        "test_round_trip_bullet",
        "test_twist_invariance_bullet",
    ),
    "test_stdgroups": (
        "test_applicability_bullet",
        "test_displayed_group_conjugacy_bullet",
        "test_order_formula_bullet",
        "test_sl2_order_bullet",
    ),
}


def test_criterion_14_property_suites():
    for module_name, expected in _BULLET_MANIFEST.items():
        module = importlib.import_module(module_name)
        discovered = tuple(sorted(
            name for name in dir(module)
            if name.startswith("test_") and name.endswith("_bullet")
        ))
        assert discovered == expected, module_name
        for name in expected:
            func = getattr(module, name)
            if name == "test_run_all_determinism_bullet":
                with tempfile.TemporaryDirectory() as tmp:
                    func(pathlib.Path(tmp))
            else:
                func()
    # the registry-coverage property lives beside the determinism one
    claims_tests = importlib.import_module("test_claims")
    claims_tests.test_criterion_map_covers_registry()
    # the completeness-oracle property runs as its own criterion above
    assert callable(test_criterion_04_gate_search_completeness)
