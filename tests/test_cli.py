import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from slopechar import charcheck, cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SCHEMAS = ROOT / "schemas"

TYPICAL = str(FIXTURES / "typical.slope")
AB = str(FIXTURES / "ammann_beenker.slope")
PENROSE = str(FIXTURES / "penrose.slope")


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _run_json(argv, tmp_path, name):
    out = tmp_path / "out.json"
    rc = cli.main(argv + ["--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema(name))
    return doc, out.read_text()


def test_info(tmp_path):
    doc, _ = _run_json(["info", TYPICAL], tmp_path, "info")
    assert doc["n"] == 4 and doc["d"] == 2
    assert doc["generic"] is True
    assert doc["plucker_residuals_zero"] is True
    assert set(doc["grassmann"]) == {"G12", "G13", "G14", "G23", "G24", "G34"}


def test_info_stdout(capsys):
    assert cli.main(["info", TYPICAL]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4


def test_digitize(tmp_path, capsys):
    out = tmp_path / "patch.json"
    svg = tmp_path / "patch.svg"
    rc = cli.main(["digitize", AB, "--radius", "6",
                   "--json", str(out), "--svg", str(svg)])
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("patch"))
    assert doc["faces"]
    assert "<svg" in svg.read_text()
    assert "faces at radius 6" in capsys.readouterr().out


def test_coincidences(tmp_path):
    doc, _ = _run_json(["coincidences", TYPICAL], tmp_path, "coincidences")
    assert len(doc["types"]) == 4
    for t in doc["types"]:
        assert len(t["lattice"]) == 6
        assert len(t["realized"]) == len(t["lattice"])


@pytest.mark.parametrize("spec, digest", [
    (TYPICAL, "4c1d9049d34b917d07b5f51aa90893a31f31522754c0717e5ab7162faf691d17"),
    (AB, "1e8404b6953d7d2974786b79cbae825140dde462254f21f12c8dd38fb620f0fc"),
])
def test_coincidences_golden(tmp_path, spec, digest):
    # lattices, realizations and minimized r as the full-system elimination
    # gave them
    _, text = _run_json(["coincidences", spec], tmp_path, "coincidences")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rpatterns_sampled_golden(tmp_path):
    # the sampled 3-D atlas as vertex enumeration of the window gave it
    _, text = _run_json(["rpatterns", PENROSE, "--r", "0", "--samples", "20"],
                        tmp_path, "rpatterns")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2a63a7bb9a933214bf8d4127525bcdb868c82a9440734f5b53a8160aad8a227b"


@pytest.mark.parametrize("spec, r, digest", [
    (AB, "1", "8c4066fd33ac5f98f56a56956317776463910b416122fb6e520bfe16830df0ed"),
    (TYPICAL, "0", "6a609a730c106a07ad372690e36c7b5fb8010e7251bc9c4b743d77cef16cd363"),
], ids=["ammann_beenker_r1", "typical_r0"])
def test_rpatterns_exact_golden(tmp_path, spec, r, digest):
    # the exact 2-D atlas as the vertex-pass side test of every cell against
    # every cut gave it
    _, text = _run_json(["rpatterns", spec, "--r", r], tmp_path, "rpatterns")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_equations(tmp_path):
    doc, _ = _run_json(["equations", TYPICAL], tmp_path, "equations")
    assert len(doc["equations"]) == 8
    assert doc["variables"] == ["G12", "G13", "G14", "G23", "G24", "G34"]


def test_verdict(tmp_path, capsys):
    doc, _ = _run_json(["verdict", TYPICAL], tmp_path, "verdict")
    assert doc["status"] == "CharacterizedByCoincidences"
    assert capsys.readouterr().out.strip() == "CharacterizedByCoincidences"
    doc, _ = _run_json(["verdict", AB], tmp_path, "verdict")
    assert doc["status"] == "NotCharacterized"
    assert doc["witness"]["comparison_point"]["G13"] == "3/2"


def test_rpatterns_and_regions(tmp_path):
    doc, _ = _run_json(["rpatterns", AB, "--r", "0"], tmp_path, "rpatterns")
    assert doc["complete"] is True
    assert doc["patterns"]
    # feed one pattern back through the regions subcommand
    pat = tmp_path / "pattern.json"
    first = doc["patterns"][0]
    pat.write_text(json.dumps(
        {"edges": first["edges"],
         "vertices": [first["edges"][0]["vertex"]]}))
    reg = tmp_path / "region.json"
    rc = cli.main(["regions", AB, "--pattern", str(pat), "--out", str(reg)])
    assert rc == 0
    rdoc = json.loads(reg.read_text())
    jsonschema.validate(rdoc, _schema("region"))
    assert rdoc["halfspaces"]


def test_determinism(tmp_path):
    _, text1 = _run_json(["rpatterns", AB, "--r", "0"], tmp_path, "rpatterns")
    _, text2 = _run_json(["rpatterns", AB, "--r", "0"], tmp_path, "rpatterns")
    assert text1 == text2
    _, v1 = _run_json(["coincidences", TYPICAL], tmp_path, "coincidences")
    _, v2 = _run_json(["coincidences", TYPICAL], tmp_path, "coincidences")
    assert v1 == v2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.slope"
    bad.write_text("not a spec\n")
    assert cli.main(["info", str(bad)]) == cli.EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    assert cli.main(["info", str(tmp_path / "missing.slope")]) == cli.EXIT_PARSE


def test_exit_code_singular_offset(tmp_path, capsys, typical_spec):
    from slopechar import specfile
    # an all-zero offset puts lattice points on the window boundary
    k = len(typical_spec.minpoly) - 1
    spec = specfile.SlopeSpec(
        typical_spec.minpoly, typical_spec.root_interval, typical_spec.n,
        typical_spec.d, typical_spec.generators,
        offset=tuple((0,) * k for _ in range(typical_spec.n - typical_spec.d)))
    path = tmp_path / "singular.slope"
    path.write_text(specfile.serialize(spec))
    assert cli.main(["digitize", str(path), "--radius", "4"]) == cli.EXIT_SINGULAR
    assert "singular offset" in capsys.readouterr().err


def test_exit_code_resource_limit(monkeypatch, capsys):
    def boom(*a, **k):
        raise charcheck.ResourceLimit("forced")
    monkeypatch.setattr(charcheck, "verdict", boom)
    assert cli.main(["verdict", TYPICAL]) == cli.EXIT_RESOURCE
    assert "resource limit" in capsys.readouterr().err


GOOD_GENERATORS = "[[1, 0, [0, 1], 1], [0, 1, 1, [0, 1]]]"


@pytest.mark.parametrize("minpoly, interval, generators, message", [
    # reducible minpoly, named in the spec's own notation
    ('["-4", 0, 1]', '["1", "3"]', GOOD_GENERATORS,
     'minpoly ["-4", "0", "1"] is reducible over Q'),
    ('["-2", 0, 1]', '["2", "3"]', GOOD_GENERATORS,
     "no real root in [2, 3]"),  # no root in the interval
    ('["-2", 0, 1]', '["1", "2"]', "[[1, 0, [0, 1], 1], [2, 0, [0, 2], 2]]",
     "generators are not linearly independent"),
], ids=["reducible", "no_root", "dependent"])
def test_bad_spec_exits_with_one_line(tmp_path, capsys, minpoly, interval, generators,
                                      message):
    path = tmp_path / "bad.slope"
    path.write_text(f"minpoly = {minpoly}\nroot_interval = {interval}\n"
                    f"n = 4\nd = 2\ngenerators = {generators}\n")
    assert cli.main(["info", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def test_vanishing_normalization_exits_with_one_line(tmp_path, capsys):
    # G12 = det [[0, 1], [0, sqrt 2]] = 0 at this slope
    path = tmp_path / "vanishing.slope"
    path.write_text('minpoly = ["-2", 0, 1]\nroot_interval = ["1", "2"]\n'
                    "n = 4\nd = 2\n"
                    "generators = [[0, 0, 1, [0, 1]], [1, [0, 1], 0, 1]]\n"
                    'normalization = "G12"\n')
    assert cli.main(["verdict", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: normalization coordinate G12 vanishes at the slope"]


@pytest.mark.parametrize("line, message", [
    ('normalization = "G1x"', 'error: normalization: expected a name like "G12", got \'G1x\''),
    ('offset = [[0], "x"]', "error: offset: invalid rational 'x'"),
    ("minpoly = 5", "error: minpoly: expected a list of at least 2 coefficients, got 5"),
    ("minpoly = []", "error: minpoly: expected a list of at least 2 coefficients, got []"),
    ('root_interval = "12"',
     "error: root_interval: expected a list of two endpoints, got '12'"),
    ("seed = true", "error: seed: expected an integer, got True"),
], ids=["normalization", "offset", "minpoly_not_a_list", "minpoly_empty",
        "root_interval_string", "seed_bool"])
def test_bad_value_exits_with_one_line_naming_its_key(tmp_path, capsys, line, message):
    path = tmp_path / "bad.slope"
    path.write_text('minpoly = ["-2", 0, 1]\nroot_interval = ["1", "2"]\n'
                    f"n = 4\nd = 2\ngenerators = {GOOD_GENERATORS}\n{line}\n")
    assert cli.main(["verdict", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_coincidence_fault_stays_visible(monkeypatch):
    # a program fault inside verdict is not an input error: it is not
    # mapped to an exit code
    def boom(*a, **k):
        raise charcheck.CharcheckError("coincidence equation fails to vanish")
    monkeypatch.setattr(charcheck, "verdict", boom)
    with pytest.raises(charcheck.CharcheckError):
        cli.main(["verdict", TYPICAL])


@pytest.mark.parametrize("argv, message", [
    (["digitize", AB, "--radius", "-3"], "error: radius must be >= 0, got -3"),
    (["rpatterns", AB, "--r", "-1"], "error: r must be >= 0, got -1"),
    (["digitize", AB, "--radius", "1/0"], "error: radius 1/0 has a zero denominator"),
    (["rpatterns", PENROSE, "--samples", "0"], "error: samples must be >= 1, got 0"),
    (["rpatterns", PENROSE, "--samples", "-5"], "error: samples must be >= 1, got -5"),
], ids=["negative_radius", "negative_r", "zero_denominator_radius", "zero_samples",
        "negative_samples"])
def test_negative_size_exits_with_one_line(tmp_path, capsys, argv, message):
    # a negative radius squared, an empty set of walks, or no sample point
    # would pass as a one-face patch, a one-pattern atlas or an empty atlas
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--json", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert not captured.out
    assert not out.exists()


@pytest.mark.parametrize("edge, vertices, message", [
    # direction 0 would wrap a[:i - 1] to a[:-1], the region of another pattern
    ({"vertex": [0, 0, 0, 0], "direction": 0}, [],
     "error: pattern: edge direction 0 is not in 1..4"),
    ({"vertex": [0, 0, 0, 0], "direction": 7}, [],
     "error: pattern: edge direction 7 is not in 1..4"),
    ({"vertex": [0, 0, 0], "direction": 1}, [],
     "error: pattern: vertex [0, 0, 0] needs 4 integer coordinates"),
    ({"vertex": [0, 0, 0, 0], "direction": 1}, [[0, 0, 0]],
     "error: pattern: vertex [0, 0, 0] needs 4 integer coordinates"),
    ({"vertex": [0, 0, 0, "1/2"], "direction": 1}, [],
     "error: pattern: vertex [0, 0, 0, '1/2'] needs 4 integer coordinates"),
], ids=["direction_0", "direction_above_n", "short_vertex", "short_isolated_vertex",
        "rational_coordinate"])
def test_regions_rejects_a_pattern_off_the_lattice(tmp_path, capsys, edge, vertices,
                                                   message):
    pat = tmp_path / "pattern.json"
    pat.write_text(json.dumps({"edges": [edge], "vertices": vertices}))
    out = tmp_path / "region.json"
    assert cli.main(["regions", AB, "--pattern", str(pat), "--out", str(out)]) \
        == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert not captured.out
    assert not out.exists()
