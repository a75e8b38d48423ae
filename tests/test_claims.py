import json
from dataclasses import fields
from fractions import Fraction

import pytest

from isogate.claims import (CLAIM_IDS, CRITERION_CLAIMS, FAMILY_J, FAMILY_T,
                            NO_TWO_TORSION_J, _REGISTRY, ClaimReport, Config,
                            _bounded_verdict, _exact_torsion_order,
                            _gate_expected,
                            claim_description, run_all, run_claim)
from isogate.cli import main
from isogate.errors import UnknownClaim
from isogate.modcurve import image_bound, named_curve, two_division_shape
from isogate.modfield import supported_moduli
from isogate.ratcurves import (CubicFactorType, CurveModel, curve_from_j,
                               parse_rational_expr, surjectivity_certificates)


def test_claim_ids():
    assert CLAIM_IDS == (
        "cartan-lemma", "cm-criterion", "cm-filter", "cube-cartan",
        "disc-17-37", "disc-7", "exc-2torsion", "exc-family", "family-j",
        "full2", "g3-orbits", "g7-orbits", "g95-s4", "gate-search",
        "sqrt-rule", "surjectivity", "x011", "x014-torsion", "x020",
    )
    assert list(CLAIM_IDS) == sorted(CLAIM_IDS)


def test_criterion_map_covers_registry():
    assert set(CRITERION_CLAIMS) == set(range(1, 15))
    for ids in CRITERION_CLAIMS.values():
        assert ids
        for cid in ids:
            assert cid in CLAIM_IDS
    covered = set()
    for ids in CRITERION_CLAIMS.values():
        covered.update(ids)
    assert covered == set(CLAIM_IDS)


def test_frozen_inputs():
    assert len(FAMILY_J) == len(FAMILY_T) == 18
    assert len(NO_TWO_TORSION_J) == 9
    parsed = [parse_rational_expr(s) for s in FAMILY_J]
    assert len(set(parsed)) == 18


def test_claim_description():
    text = claim_description("gate-search")
    assert "applicable" in text
    with pytest.raises(UnknownClaim):
        claim_description("weil-pairing")


def test_run_claim_errors():
    with pytest.raises(UnknownClaim):
        run_claim("nope")
    with pytest.raises(ValueError):
        run_claim("disc-7", moduli=(7,))
    for claim_id, r in (("cartan-lemma", 4), ("cm-criterion", 101), ("gate-search", 101),
                        ("surjectivity", 3), ("cube-cartan", 5), ("g3-orbits", 7)):
        with pytest.raises(ValueError, match=f"r = {r}"):
            run_claim(claim_id, moduli=(r,))


# the gate-search rows r = 5..37 as frozen from the exhaustive search
# before the closed form was proved
_GATE_ROWS = {
    5: {"classes": 1, "indices": [30], "pm_pairs": []},
    7: {"classes": 2, "indices": [56, 112], "pm_pairs": [[0, 1]]},
    11: {"classes": 2, "indices": [132, 264], "pm_pairs": [[0, 1]]},
    13: {"classes": 2, "indices": [182, 546], "pm_pairs": []},
    17: {"classes": 3, "indices": [306, 612, 1224], "pm_pairs": []},
    19: {"classes": 4, "indices": [380, 760, 1140, 2280],
         "pm_pairs": [[0, 1], [2, 3]]},
    23: {"classes": 2, "indices": [552, 1104], "pm_pairs": [[0, 1]]},
    29: {"classes": 2, "indices": [870, 6090], "pm_pairs": []},
    31: {"classes": 6, "indices": [992, 1984, 2976, 4960, 5952, 9920],
         "pm_pairs": [[0, 1], [2, 4], [3, 5]]},
    37: {"classes": 3, "indices": [1406, 4218, 12654], "pm_pairs": []},
}


def test_gate_closed_form_matches_frozen_rows():
    for r, row in _GATE_ROWS.items():
        assert _gate_expected(r) == row, r


def test_gate_search_passes_at_every_supported_prime():
    rep = run_claim("gate-search", moduli=supported_moduli())
    assert rep.status == "pass", rep.computed
    assert rep.params == {"r": list(supported_moduli())}


def test_cheap_claims_pass():
    for cid in ("disc-7", "sqrt-rule", "cm-criterion", "full2"):
        rep = run_claim(cid)
        assert rep.status == "pass", (cid, rep.computed)
        assert rep.elapsed_ms >= 0
        assert rep.params == {}
    rep = run_claim("cartan-lemma", moduli=(7,))
    assert rep.status == "pass"
    assert rep.params == {"r": [7]}
    rep = run_claim("g3-orbits", moduli=(5,))
    assert rep.status == "pass"


def test_exc_family_cube_torus_matches_conjugacy_oracle():
    # the claim reads the gatefinder classification; are_conjugate's GL2
    # witness scan is the independent check
    from isogate.gatefinder import find_gate_groups
    from isogate.matgroup import are_conjugate
    from isogate.stdgroups import standard_group
    gate, g3 = find_gate_groups(5).groups[0], standard_group("g3", 5)
    assert are_conjugate(gate, g3) is not None
    assert gate.sl2_part().order == g3.sl2_part().order == 4
    assert gate.order == g3.order == 16
    rep = run_claim("exc-family")
    assert rep.status == "pass"
    assert rep.computed["r5_gate_class_is_cube_torus"] is True


def test_cm_filter_tests_each_cm_j_once(monkeypatch):
    from isogate import claims
    from isogate.cyclo import cm_table
    calls = []
    membership = claims.family_membership
    monkeypatch.setattr(claims, "family_membership",
                        lambda j: calls.append(j) or membership(j))
    assert run_claim("cm-filter").status == "pass"
    assert len(calls) == len(cm_table()) == 13


def test_report_to_dict():
    rep = run_claim("sqrt-rule")
    d = rep.to_dict()
    assert d["schema"] == "isogate-report/1"
    assert d["claim_id"] == "sqrt-rule"
    assert d["status"] == "pass"
    json.dumps(d)  # everything JSON-stable, Fractions already strings


def test_report_to_dict_keys_follow_the_fields():
    rep = ClaimReport("sqrt-rule", {"r": [5, 7]}, "fail", {"5": [1, "2/3"]},
                      {"5": [1, "1/3"]}, 12)
    d = rep.to_dict()
    assert list(d) == ["schema", *(f.name for f in fields(ClaimReport))]
    # the dict written out by hand before it was derived from the fields
    assert d == {
        "schema": "isogate-report/1",
        "claim_id": rep.claim_id,
        "params": rep.params,
        "status": rep.status,
        "expected": rep.expected,
        "computed": rep.computed,
        "elapsed_ms": rep.elapsed_ms,
    }
    assert d["params"] is rep.params and d["computed"] is rep.computed  # not copied


def test_config(tmp_path):
    c = Config()
    assert c.sample_bound == 10 ** 4
    assert c.torsion_primes == {}

    path = tmp_path / "conf.json"
    path.write_text(json.dumps({
        "sample_bound": 500,
        "torsion_primes": {"X0(14)": [29, 43]},
    }))
    c = Config.from_json(str(path))
    assert c.sample_bound == 500
    assert c.torsion_primes == {"X0(14)": (29, 43)}

    path.write_text(json.dumps({"sample_bound": 500, "verbose": True}))
    with pytest.raises(ValueError):
        Config.from_json(str(path))


def test_config_keys_follow_the_fields(tmp_path):
    path = tmp_path / "conf.json"
    every = {"sample_bound": 500, "torsion_primes": {"X0(11)": [31]}}
    assert set(every) == {f.name for f in fields(Config)}
    path.write_text(json.dumps(every))
    assert Config.from_json(str(path)) == Config(500, {"X0(11)": (31,)})
    path.write_text(json.dumps({**every, "cap": 7}))
    with pytest.raises(ValueError, match=r"unknown config keys: \['cap'\]"):
        Config.from_json(str(path))


@pytest.mark.parametrize("raw", [
    {"sample_bound": -5},
    {"sample_bound": 2},
    {"sample_bound": 10 ** 6 + 1},
    {"sample_bound": "500"},
    {"sample_bound": True},
    {"sample_bound": 500.0},
    {"height_bound": 0},
    {"height_bound": 2001},
    {"height_bound": None},
    {"torsion_primes": [29]},
    {"torsion_primes": {"X0(15)": [29]}},
    {"torsion_primes": {"X0(14)": []}},
    {"torsion_primes": {"X0(14)": 29}},
    {"torsion_primes": {"X0(14)": [30]}},
    {"torsion_primes": {"X0(14)": [2]}},
    {"torsion_primes": {"X0(14)": ["29"]}},
    {"torsion_primes": {"X0(14)": [1000033]}},
    {"height_bound": 1000},
])
def test_config_rejects_bad_values(tmp_path, raw):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        Config.from_json(str(path))


def test_config_accepts_range_ends(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"sample_bound": 3,
                                "torsion_primes": {"X0(11)": [3, 999983]}}))
    c = Config.from_json(str(path))
    assert c.sample_bound == 3
    assert c.torsion_primes == {"X0(11)": (3, 999983)}
    assert Config(sample_bound=10 ** 6).sample_bound == 10 ** 6


def test_failing_claim_does_not_abort_run(monkeypatch, capsys):
    from isogate import claims

    def broken(config, moduli):
        raise RuntimeError("runner exploded")

    def passing(config, moduli):
        return {}, {}

    for cid in CLAIM_IDS:
        runner = broken if cid == "disc-7" else passing
        spec = claims.ClaimSpec(cid, claims._REGISTRY[cid].description, runner)
        monkeypatch.setitem(claims._REGISTRY, cid, spec)
    reports = run_all()
    assert len(reports) == 19
    by_id = {rep.claim_id: rep for rep in reports}
    assert by_id["disc-7"].status == "fail"
    assert by_id["disc-7"].computed == {"error": "RuntimeError: runner exploded"}
    assert all(rep.status == "pass" for cid, rep in by_id.items() if cid != "disc-7")
    assert main(["verify", "--all"]) == 1
    assert "18 pass, 1 fail" in capsys.readouterr().out


def test_torsion_prime_off_congruence_fails_its_claim_only():
    config = Config(torsion_primes={"X0(14)": (31,)})
    rep = run_claim("x014-torsion", config=config)
    assert rep.status == "fail"
    assert rep.computed == {"error": "ValueError: 31 is not 1 mod 7"}
    assert run_claim("disc-7", config=config).status == "pass"


def test_x014_torsion_order_is_certified_exact():
    rep = run_claim("x014-torsion")
    assert rep.status == "pass"
    assert rep.expected["torsion_order"] == rep.computed["torsion_order"] == 12
    assert rep.computed["structure_bound"] == 12


def test_exact_torsion_order_needs_matching_bounds():
    # E[2] over Q(zeta_7) needs class -7 (or 1) beside one rational root
    shape = two_division_shape(named_curve("X0(14)"))
    assert _exact_torsion_order(shape, 6, 12, 7) == 12
    assert _exact_torsion_order(shape, 6, 24, 7) is None
    # -7 is not a square in Q(zeta_5): only the rational Z/6 is certified
    assert _exact_torsion_order(shape, 6, 12, 5) is None
    assert _exact_torsion_order(shape, 6, 6, 5) == 6
    split = CubicFactorType("three_rational_roots", 1, (Fraction(-1), Fraction(0), Fraction(1)), None)
    assert _exact_torsion_order(split, 4, 4, 7) == 4
    assert _exact_torsion_order(split, 8, 8, 7) == 8
    irreducible = two_division_shape(named_curve("X0(11)"))
    assert _exact_torsion_order(irreducible, 5, 5, 11) == 5


def test_surjectivity_negatives_make_no_point_counts(monkeypatch):
    # the pinned negatives are read from image_bound: every scan the claim
    # makes is one the family certificates make on their own
    import isogate.ratcurves as ratcurves

    counted = []
    real = ratcurves.count_by_x_scan

    def counting(b2, b4, b6, q):
        counted.append(q)
        return real(b2, b4, b6, q)

    # the named curves validate themselves by point counts when first
    # loaded, and X0(11)@5 is read from its rational torsion, whose point
    # counts sit in an LRU cache that other tests' curves may have evicted:
    # make both before the count is patched, so the test counts the same
    # scans alone and after any other test
    image_bound(named_curve("X0(11)").model, 5)
    monkeypatch.setattr(ratcurves, "count_by_x_scan", counting)
    assert run_claim("surjectivity").status == "pass"
    in_claim, counted[:] = list(counted), []
    for j_expr in FAMILY_J:
        surjectivity_certificates(curve_from_j(parse_rational_expr(j_expr)),
                                  (11, 13, 17, 19))
    assert in_claim == counted


def test_bounded_verdict_reports_what_it_cannot_settle(monkeypatch):
    from isogate import claims
    from isogate.matgroup import MatrixGroup

    cm = CurveModel.short(1, 0)
    assert _bounded_verdict(cm, 7) == "inconclusive"
    assert _bounded_verdict(named_curve("X0(11)").model, 5) == "inconclusive"
    # no bound: nothing decides the verdict, and the claim fails visibly
    monkeypatch.setattr(claims, "image_bound", lambda model, r: None)
    assert _bounded_verdict(cm, 7) is None
    rep = run_claim("surjectivity", moduli=(11,))
    assert rep.status == "fail"
    assert rep.computed["negative"] == {"X0(11)@5": None, "2^6*3^3@7": None}
    # a "bound" on which all four criteria hold is reported by its kind
    monkeypatch.setattr(claims, "image_bound", lambda model, r: "borel")
    monkeypatch.setattr(claims, "standard_group", lambda kind, r: MatrixGroup.full(r))
    assert _bounded_verdict(cm, 7) == "borel"


def test_write_reports(tmp_path):
    loaded = []
    for cid in ("disc-7", "full2"):
        out = tmp_path / f"{cid}.json"
        assert main(["verify", "--claim", cid, "--json", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert isinstance(entries, list) and len(entries) == 1
        loaded += entries
    assert {entry["claim_id"] for entry in loaded} == {"disc-7", "full2"}
    for entry in loaded:
        assert entry["schema"] == "isogate-report/1"


def _scrub(entries):
    return [{k: v for k, v in e.items() if k != "elapsed_ms"} for e in entries]


def test_run_all_determinism_bullet(tmp_path):
    def run_once(name):
        out = tmp_path / name
        assert main(["verify", "--all", "--json", str(out)]) == 0
        return out.read_text()

    text1 = run_once("a.json")
    first = _scrub(json.loads(text1))
    assert [e["claim_id"] for e in first] == list(CLAIM_IDS)
    assert all(e["status"] == "pass" for e in first)
    # files differ only in timing fields
    assert _scrub(json.loads(run_once("b.json"))) == first
    # and the library returns the reports the command writes
    assert _scrub(rep.to_dict() for rep in run_all()) == first


def test_run_all_prints_nothing(capsys):
    reports = run_all()
    assert [rep.claim_id for rep in reports] == list(CLAIM_IDS)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("cid", [cid for cid in CLAIM_IDS if _REGISTRY[cid].defaults])
def test_default_moduli_are_a_valid_list(cid):
    # a claim's defaults are a list it would accept, run exactly as if given
    spec = _REGISTRY[cid]
    assert len(set(spec.defaults)) == len(spec.defaults)
    for r in spec.defaults:
        assert r in supported_moduli(), (cid, r)
        assert spec.domain is None or spec.domain(r), (cid, r)
    given, default = run_claim(cid, moduli=spec.defaults), run_claim(cid)
    assert given.params == {"r": list(spec.defaults)} and default.params == {}
    for name in ("expected", "computed", "status"):
        assert getattr(given, name) == getattr(default, name), (cid, name)
    assert default.status == "pass"


def test_claims_without_defaults_refuse_a_moduli_list():
    fixed = [cid for cid in CLAIM_IDS if not _REGISTRY[cid].defaults]
    assert fixed
    for cid in fixed:
        with pytest.raises(ValueError, match="does not take a moduli list"):
            run_claim(cid, moduli=(7,))
