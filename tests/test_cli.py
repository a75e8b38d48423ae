import hashlib
import json

import pytest

from isogate.cli import main
from isogate.modfield import supported_moduli


def test_verify_single_claim(capsys):
    assert main(["verify", "--claim", "disc-7"]) == 0
    out = capsys.readouterr().out
    assert "disc-7" in out
    assert "status: pass" in out


def test_verify_needs_target(capsys):
    assert main(["verify"]) == 2
    assert "--claim" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--all", "--r", "5"],
    ["--claim", "x011", "--all"],
    ["--all", "--claim", "surjectivity", "--r", "11"],
])
def test_verify_all_rejects_claim_and_moduli(capsys, monkeypatch, argv):
    # --all names every claim at its default moduli, so --claim and --r are
    # usage errors, reported before any claim runs
    from isogate import cli

    monkeypatch.setattr(cli, "run_all", lambda *a, **kw: pytest.fail("ran the registry"))
    monkeypatch.setattr(cli, "run_claim", lambda *a, **kw: pytest.fail("ran a claim"))
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert "verify --all takes no" in captured.err
    assert captured.out == ""


def test_verify_rejects_unknown_claim():
    # argparse enforces the registry through choices
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "weil-pairing"])
    assert exc.value.code == 2


def test_verify_rejects_moduli_on_fixed_claim(capsys):
    assert main(["verify", "--claim", "disc-7", "--r", "7"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("claim_id, primes", [
    ("cartan-lemma", ["7", "7"]),
    ("gate-search", ["5", "7", "5"]),
    ("g3-orbits", ["11", "5", "11"]),
])
def test_verify_refuses_a_repeated_modulus(tmp_path, capsys, claim_id, primes):
    # one modulus is one key of the report, so a repeat is an input error,
    # refused before the claim runs and before any report is written
    out = tmp_path / "out.json"
    assert main(["verify", "--claim", claim_id, "--r", *primes, "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: claim {claim_id} is given a modulus twice: "
                            f"r = [{', '.join(primes)}]\n")
    assert captured.out == ""
    assert not out.exists()


def test_verify_with_moduli(capsys):
    assert main(["verify", "--claim", "cartan-lemma", "--r", "7", "11"]) == 0
    assert "status: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["cartan-lemma", "--r", "4"],
    ["gate-search", "--r", "101"],
    ["surjectivity", "--r", "3"],
    ["cube-cartan", "--r", "5"],
    ["g3-orbits", "--r", "7"],
])
def test_verify_rejects_off_domain_moduli(capsys, argv):
    # a modulus outside the claim's domain is an input error, not a failed claim
    assert main(["verify", "--claim", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["cm-filter", "--r", "5", "11"],
    ["cm-filter", "--r", "7"],
    ["cm-criterion", "--r", "3"],
    ["gate-search", "--r", "13"],
    ["gate-search", "--r", "41", "97"],
    ["surjectivity", "--r", "5"],
    ["cube-cartan", "--r", "13"],
    ["g3-orbits", "--r", "11"],
])
def test_verify_in_domain_moduli(capsys, argv):
    assert main(["verify", "--claim", *argv]) == 0
    assert "status: pass" in capsys.readouterr().out


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "--claim", "sqrt-rule", "--json", str(out)]) == 0
    capsys.readouterr()
    loaded = json.loads(out.read_text())
    assert len(loaded) == 1
    assert loaded[0]["claim_id"] == "sqrt-rule"
    assert loaded[0]["schema"] == "isogate-report/1"
    assert loaded[0]["status"] == "pass"


def test_verify_json_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["verify", "--claim", "full2", "--json", str(p)]) == 0
    capsys.readouterr()
    scrub = lambda p: [{k: v for k, v in e.items() if k != "elapsed_ms"}
                       for e in json.loads(p.read_text())]
    assert scrub(paths[0]) == scrub(paths[1])


def test_verify_config_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"verbose": True}))
    assert main(["verify", "--claim", "disc-7", "--config", str(conf)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_search_gate_groups(tmp_path, capsys):
    out = tmp_path / "gate.json"
    assert main(["search", "gate-groups", "--r", "5", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "r=5: 1 conjugacy classes" in text
    assert "order 16, index 30" in text
    payload = json.loads(out.read_text())
    assert payload["r"] == 5
    assert [c["order"] for c in payload["classes"]] == [16]
    assert [c["index"] for c in payload["classes"]] == [30]
    assert payload["plus_minus_pairs"] == []

    assert main(["search", "gate-groups", "--r", "7", "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert [(c["order"], c["generators"]) for c in payload["classes"]] == [
        (36, ["[[2,0],[0,4]] mod 7", "[[3,0],[0,5]] mod 7", "[[0,1],[4,0]] mod 7"]),
        (18, ["[[4,0],[0,2]] mod 7", "[[0,4],[1,0]] mod 7"]),
    ]
    assert payload["plus_minus_pairs"] == [[0, 1]]


def test_search_gate_groups_range(capsys):
    assert main(["search", "gate-groups", "--r", "101"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["search", "gate-groups", "--r", "17"]) == 0
    assert capsys.readouterr().out.startswith("r=17: 3 conjugacy classes\n")


def test_curves_disc_class(capsys):
    assert main(["curves", "disc-class", "--j=-3^3*5^3"]) == 0
    assert capsys.readouterr().out.strip() == "-7"
    assert main(["curves", "disc-class", "--j", "1729"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_curves_disc_class_rejects_1728(capsys):
    assert main(["curves", "disc-class", "--j", "1728"]) == 2
    assert "error:" in capsys.readouterr().err


def _assert_input_error(capsys, argv):
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "unexpected" not in lines[0]


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "disc-7", "--config", "{missing}/config.json"],
    ["verify", "--claim", "disc-7", "--json", "{missing}/report.json"],
    ["search", "gate-groups", "--r", "5", "--json", "{missing}/gate.json"],
])
def test_bad_paths_are_input_errors(tmp_path, capsys, argv):
    # a file that cannot be read or written is bad input, not a crash
    missing = tmp_path / "missing"
    _assert_input_error(capsys, [arg.format(missing=missing) for arg in argv])


@pytest.mark.parametrize("argv", [
    ["search", "gate-groups", "--r", "97", "--json", "{missing}/x.json"],
    ["search", "gate-groups", "--r", "5", "--json", "{folder}"],
    ["verify", "--all", "--json", "{missing}/report.json"],
    ["verify", "--claim", "gate-search", "--json", "{missing}/report.json"],
])
def test_bad_json_path_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # a missing directory or a directory as the file is refused up front,
    # not after the whole search or registry has run
    from isogate import cli

    monkeypatch.setattr(cli, "find_gate_groups", lambda *a, **kw: pytest.fail("ran the search"))
    monkeypatch.setattr(cli, "run_all", lambda *a, **kw: pytest.fail("ran the registry"))
    monkeypatch.setattr(cli, "run_claim", lambda *a, **kw: pytest.fail("ran a claim"))
    missing = tmp_path / "missing"
    _assert_input_error(capsys, [arg.format(missing=missing, folder=tmp_path) for arg in argv])
    assert not missing.exists()


def test_good_json_path_is_written_only_after_the_work(tmp_path, capsys, monkeypatch):
    # the up-front check neither creates nor truncates the report
    from isogate import cli

    def _fail(r):
        raise ValueError("search failed")

    out = tmp_path / "gate.json"
    monkeypatch.setattr(cli, "find_gate_groups", _fail)
    _assert_input_error(capsys, ["search", "gate-groups", "--r", "5", "--json", str(out)])
    assert not out.exists()
    out.write_text("kept\n")
    _assert_input_error(capsys, ["search", "gate-groups", "--r", "5", "--json", str(out)])
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("j", ["5/0", "1/0^3"])
def test_curves_disc_class_rejects_zero_divisor(capsys, j):
    # bad input, not a crash
    _assert_input_error(capsys, ["curves", "disc-class", f"--j={j}"])


@pytest.mark.parametrize("j", ["2^2000", "2^99999999", "-1/3^99999999", "2^257",
                               "2^200*2^57", "1/2^256/2", "9" * 78])
def test_curves_disc_class_rejects_j_past_2_256(capsys, j):
    # refused before the power is built or the number factored, not a hang
    _assert_input_error(capsys, ["curves", "disc-class", f"--j={j}"])


@pytest.mark.parametrize("j", ["\u0663", "2\u00b3"])
def test_curves_disc_class_rejects_non_ascii_digits(capsys, j):
    # an Arabic-Indic three is not read as 3, and a superscript is not an exponent
    _assert_input_error(capsys, ["curves", "disc-class", f"--j={j}"])


@pytest.mark.parametrize("j", ["2^", "^3", "2^3^4"])
def test_curves_disc_class_names_a_malformed_factor(capsys, j):
    # the parser's own message, naming the atom, and not int()'s "invalid literal"
    assert main(["curves", "disc-class", f"--j={j}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed factor {j!r}") and "invalid literal" not in err


def test_curves_disc_class_names_the_empty_factor_of_a_bare_minus(capsys):
    # a lone sign leaves one empty atom, and no operator to blame
    assert main(["curves", "disc-class", "--j=-"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed factor '' in '-'")


def test_torsion_bound_command(capsys):
    assert main(["torsion-bound", "--curve", "X0(14)", "--r", "7"]) == 0
    out = capsys.readouterr().out
    assert "gcd bound: 36\nstructure bound: 12\n" in out
    assert "rational points found: 6" in out
    assert "upper bound only" in out


def test_torsion_bound_unknown_curve(capsys):
    assert main(["torsion-bound", "--curve", "X0(15)", "--r", "7"]) == 2
    # the message itself, not the quoted str() of a KeyError
    assert capsys.readouterr().err.startswith("error: unknown curve")


@pytest.mark.parametrize("r", [3, 7, 23, 31])
def test_torsion_bound_header(capsys, r):
    assert main(["torsion-bound", "--curve", "X0(11)", "--r", str(r)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"X0(11) over Q(zeta_{r})"


@pytest.mark.parametrize("raw", [
    {"sample_bound": -5},
    {"sample_bound": "500"},
    {"sample_bound": True},
    {"height_bound": 5000},
    {"torsion_primes": {"X0(15)": [29]}},
    {"torsion_primes": {"X0(14)": []}},
    {"torsion_primes": {"X0(14)": [30]}},
    {"torsion_primes": {"X0(14)": [2]}},
    {"torsion_primes": [29]},
    {"height_bound": 1000},
])
def test_verify_config_bad_values(tmp_path, capsys, raw):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(raw))
    assert main(["verify", "--all", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_all_survives_a_failing_claim(tmp_path, capsys, monkeypatch):
    # an off-congruence torsion prime fails its own claim; the rest still run
    from isogate import claims

    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"torsion_primes": {"X0(14)": [31]}}))
    monkeypatch.setattr(claims, "CLAIM_IDS", ("disc-7", "x014-torsion"))
    out = tmp_path / "rep.json"
    assert main(["verify", "--all", "--config", str(conf), "--json", str(out)]) == 1
    assert "1 pass, 1 fail" in capsys.readouterr().out
    loaded = {e["claim_id"]: e for e in json.loads(out.read_text())}
    assert loaded["disc-7"]["status"] == "pass"
    assert loaded["x014-torsion"]["computed"] == {"error": "ValueError: 31 is not 1 mod 7"}


def _crash(args):
    raise RuntimeError("internal fault")


def test_unexpected_exception_exits_2(capsys, monkeypatch):
    from isogate import cli

    monkeypatch.setattr(cli, "_cmd_disc_class", _crash)
    assert main(["curves", "disc-class", "--j", "1729"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unexpected RuntimeError: internal fault")
    assert "--debug" in err
    assert "Traceback" not in err

    assert main(["--debug", "curves", "disc-class", "--j", "1729"]) == 2
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: internal fault" in err
    assert "error: unexpected RuntimeError: internal fault" in err


def test_debug_prints_traceback_of_known_errors(capsys):
    assert main(["--debug", "curves", "disc-class", "--j", "1728"]) == 2
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "error:" in err


# ---- pinned report bytes ----
# sha256 of json.dumps(..., sort_keys=True) of the reports with elapsed_ms
# dropped; any change to a computed value, a status, an expectation or the
# report layout changes the digest

_ALL_PRIMES = [str(r) for r in supported_moduli()]
_G3_PRIMES = [str(r) for r in supported_moduli() if r % 3 == 2]
_PINNED = {
    "all": "82fb8500ce88ab12545574bf5ad1391d2d6e8673f343af764ee08db22d4fd1ef",
    "cartan-lemma": "2f74e3ff5792f982da5bbd70c3c02db0aaeb29af03a2a7476d012aea3b9535de",
    "g3-orbits": "79627a5261f2bc802aba377a3a18db69e0553c58d74b5be8857649e49f69fde6",
}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _assert_no_floats(node):
    # an integer or string prints alike on every Python; a float need not
    if isinstance(node, dict):
        for value in node.values():
            _assert_no_floats(value)
    elif isinstance(node, list):
        for value in node:
            _assert_no_floats(value)
    else:
        assert not isinstance(node, float), node


def _verify_json(tmp_path, argv):
    out = tmp_path / "reports.json"
    assert main(["verify", *argv, "--json", str(out)]) == 0
    reports = json.loads(out.read_text())
    for rep in reports:
        assert isinstance(rep.pop("elapsed_ms"), int)
    _assert_no_floats(reports)
    return reports


def test_verify_all_report_bytes_are_pinned(tmp_path, capsys):
    reports = _verify_json(tmp_path, ["--all"])
    assert len(reports) == 19
    assert _digest(reports) == _PINNED["all"]


@pytest.mark.parametrize("claim_id, primes", [
    ("cartan-lemma", _ALL_PRIMES),
    ("g3-orbits", _G3_PRIMES),
])
def test_line_claim_values_are_pinned_at_every_covered_prime(tmp_path, capsys, claim_id, primes):
    (report,) = _verify_json(tmp_path, ["--claim", claim_id, "--r", *primes])
    assert report["status"] == "pass"
    assert sorted(report["computed"], key=int) == primes
    assert _digest(report["computed"]) == _PINNED[claim_id]


# the payload of search gate-groups --json at every supported prime, as a
# list in ascending r; its generators depend on the conjugator the search
# picks and its classes on the fixed-line predicates
_GATE_GROUPS_DIGEST = "ce02fc1d6ce43662d5214c99b6f5e6a7d7feb3e95b4ea9a4994316016e55b453"


def test_gate_groups_json_is_pinned_at_every_supported_prime(tmp_path, capsys):
    out = tmp_path / "gate.json"
    payloads = []
    for r in _ALL_PRIMES:
        assert main(["search", "gate-groups", "--r", r, "--json", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert [p["r"] for p in payloads] == [int(r) for r in _ALL_PRIMES]
    _assert_no_floats(payloads)
    assert _digest(payloads) == _GATE_GROUPS_DIGEST
