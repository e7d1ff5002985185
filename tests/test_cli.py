import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GEN53Q3, HALF42, QUAD42
from slopechar import charcheck, cli, specfile
from slopechar.tiling import Face, face_selected_by_anchor

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


@pytest.mark.parametrize("spec, digest", [
    (TYPICAL, "3042ff163d950766d8a005219a0734ad8df35d6d64dac996793a5ae64785cb2e"),
    (AB, "dd326458ebf7db6a2af508653ac89fb0927ab2bd97bab65d1421cb8629003181"),
    (PENROSE, "10bffbadd2d930c8b751b92eb799143b67b0a7d861b94fde6b4440fd91e56fc7"),
], ids=["typical", "ammann_beenker", "penrose"])
def test_info_golden(tmp_path, spec, digest):
    # the decimal roundings of alpha and of every Grassmann coordinate as the
    # refinement of alpha's Fraction isolating interval gave them
    _, text = _run_json(["info", spec], tmp_path, "info")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_digitize_far_offset(tmp_path):
    # the seed search starts next to the window, not at the origin
    spec = tmp_path / "far.slope"
    spec.write_text(Path(AB).read_text() + "offset = [[50], [50]]\n")
    doc, _ = _run_json(["digitize", str(spec), "--radius", "3"], tmp_path, "patch")
    s = specfile.to_slope(specfile.load_spec(str(spec)))
    offset = (s.field.from_rational(50), s.field.from_rational(50))
    faces = [Face(tuple(f["anchor"]), tuple(f["directions"])) for f in doc["faces"]]
    assert len(faces) == 90
    assert all(face_selected_by_anchor(s, f, offset) for f in faces)


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
    ("gen53q3", "0", "672b4af30b3a3323e409c7d9aca6052a3fd1026c69c9f63aec5e901f552be55e"),
    ("quad42", "1", "da9fb945b194815b7d0dd6f34cdce7fb8acfa9e5e23410bf216f65f71a5c76dc"),
    ("half42", "1", "491d455c62597f1518f6f41cbe468ff7deab3bf210d577991e77cabff40ff13b"),
], ids=["ammann_beenker_r1", "typical_r0", "gen53q3_r0", "quad42_r1", "half42_r1"])
def test_rpatterns_exact_golden(tmp_path, spec, r, digest):
    # the exact 2-D atlas as the vertex-pass side test of every cell against
    # every cut gave it (the first two), and as the FieldElem cut loop gave it
    # (the last three: five generators over a cubic field, a hexagonal window
    # with 3 slabs, a non-integral minpoly)
    if spec in SPEC_TEXTS:
        path = tmp_path / f"{spec}.slope"
        path.write_text(SPEC_TEXTS[spec])
        spec = str(path)
    _, text = _run_json(["rpatterns", spec, "--r", r], tmp_path, "rpatterns")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# slopes without a fixture file, by name
SPEC_TEXTS = {"gen53q3": GEN53Q3, "quad42": QUAD42, "half42": HALF42}


@pytest.mark.parametrize("spec, digest", [
    ("typical", "04e15b6dc81e2deac3a2d4afc4ed30b97dffe3b5c58c076fa00ba16573c92fba"),
    ("ammann_beenker", "e2b3414a87f5ec0b1324f0cba7b8619bab0e00a02d3123cdaf3e4069f73affbc"),
    ("gen53q3", "4e19b7341a17c943f61f0ab6b5544a26c7c628338c92914aab24a4d539506592"),
])
def test_verdict_golden(tmp_path, spec, digest):
    # Groebner bases, witnesses and r-bounds as reduction over Fraction
    # coefficients gave them; timings aside
    path = FIXTURES / f"{spec}.slope"
    if spec == "gen53q3":
        path = tmp_path / "gen53q3.slope"
        path.write_text(GEN53Q3)
    doc, _ = _run_json(["verdict", str(path)], tmp_path, "verdict")
    doc.pop("timings")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_equations(tmp_path):
    doc, _ = _run_json(["equations", TYPICAL], tmp_path, "equations")
    assert len(doc["equations"]) == 8
    assert doc["variables"] == ["G12", "G13", "G14", "G23", "G24", "G34"]


@pytest.mark.parametrize("spec, digest", [
    (TYPICAL, "3246b0a0d6880aa50f748ae346ce9b121553d26a1251bb2e0d63201c0c4fd6cc"),
    (AB, "58d3aa2457d653a6a808ce0eefa0bc450bd764f6f5cb6ade13fddfce3f16408e"),
], ids=["typical", "ammann_beenker"])
def test_equations_golden(tmp_path, spec, digest):
    # equations, their types and lattice vectors as a field elimination per
    # vector left them; test_coincidences_golden pins the realizations
    _, text = _run_json(["equations", spec], tmp_path, "equations")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    assert cli.main(["info", TYPICAL]) == 0
    assert cli.main(["info", TYPICAL]) == 0
    assert built == [1]
    capsys.readouterr()
    # a usage error after a successful call is still bad input, on one line
    assert cli.main(["info", TYPICAL, "--no-such-option"]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--no-such-option" in err
    assert built == [1]


def test_exit_code_singular_offset(tmp_path, capsys, typical_spec):
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
    ("d = true", "error: d: expected an integer, got True"),
    ("n = false", "error: n: expected an integer, got False"),
    ("generators = [[1, 0, [0, true], 1], [0, 1, 1, [0, 1]]]",
     "error: generators: expected integer or 'p/q' string, got True"),
    ('minpoly = ["-2", false, true]',
     "error: minpoly: expected integer or 'p/q' string, got False"),
    ('normalization = "G21"',
     "error: normalization must name 2 ascending axes in 1..4, got 'G21'"),
    ('normalization = "G11"',
     "error: normalization must name 2 ascending axes in 1..4, got 'G11'"),
    ('normalization = "G15"',
     "error: normalization must name 2 ascending axes in 1..4, got 'G15'"),
], ids=["normalization", "offset", "minpoly_not_a_list", "minpoly_empty",
        "root_interval_string", "seed_bool", "d_bool", "n_bool", "generator_entry_bool",
        "minpoly_bool", "normalization_not_ascending", "normalization_repeated_axis",
        "normalization_axis_above_n"])
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
        raise ValueError("coincidence equation fails to vanish")
    monkeypatch.setattr(charcheck, "verdict", boom)
    with pytest.raises(ValueError, match="fails to vanish"):
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


FIVE_THREE = ('minpoly = ["-2", 0, 1]\nroot_interval = ["1", "2"]\nn = 5\nd = 3\n'
              "generators = [[1, [0, 1], 2, [1, 1], 3], [0, 1, [0, 1], 2, 5], "
              "[1, 0, 0, 1, [0, 3]]]\n")


@pytest.mark.parametrize("spec, args, message", [
    (Path(TYPICAL).read_text() + 'offset = "integral-sum"\n', ["--radius", "3"],
     "error: integral-sum offset: (1,...,1) is not orthogonal to the slope"),
    (FIVE_THREE, ["--radius", "3", "--svg", "{tmp}/patch.svg"],
     "error: SVG rendering needs d = 2"),
    # no lattice point projects to 0, the only point of a radius-0 ball, at
    # this offset
    (Path(AB).read_text() + 'offset = ["2/3", "5/7"]\n', ["--radius", "0"],
     "error: no faces in patch"),
    (Path(AB).read_text(), ["--radius", "abc"], "error: Invalid literal for Fraction: 'abc'"),
], ids=["integral_sum_not_orthogonal", "svg_needs_d2", "empty_patch", "radius_not_rational"])
def test_digitize_bad_input_exits_with_one_line(tmp_path, capsys, spec, args, message):
    path = tmp_path / "in.slope"
    path.write_text(spec)
    out = tmp_path / "patch.json"
    argv = ["digitize", str(path)] + [a.format(tmp=tmp_path) for a in args]
    assert cli.main(argv + ["--json", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert not captured.out
    assert not out.exists() and not (tmp_path / "patch.svg").exists()


@pytest.mark.parametrize("argv, message", [
    (["rpatterns", TYPICAL, "--r", "abc"], "error: argument --r: invalid int value: 'abc'"),
    (["bogus", TYPICAL], "error: argument command: invalid choice: 'bogus' (choose from "
     "'info', 'digitize', 'coincidences', 'equations', 'verdict', 'regions', 'rpatterns')"),
    (["regions", AB], "error: the following arguments are required: --pattern"),
    ([], "error: the following arguments are required: command"),
    (["info", TYPICAL, "x\ny"], "error: unrecognized arguments: x y"),
], ids=["bad_int", "unknown_subcommand", "missing_option", "no_subcommand",
        "line_break_in_argument"])
def test_usage_error_exits_with_one_line(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert not captured.out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rpatterns", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


@pytest.mark.parametrize("kind, content, message", [
    ("spec", b"\xff\xfe", "error: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    ("pattern", b"\xff\xfe", "error: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    ("pattern", b"{oops", "error: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("pattern", b'{"edges": []}', "error: pattern has no vertices"),
], ids=["spec_not_utf8", "pattern_not_utf8", "pattern_not_json", "pattern_empty"])
def test_bad_file_exits_with_one_line(tmp_path, capsys, kind, content, message):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    if kind == "spec":
        argv = ["info", str(bad)]
    else:
        argv = ["regions", AB, "--pattern", str(bad)]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on the digits of an integer")
def test_overlong_integer_exits_with_one_line(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer past the interpreter's digit limit
    path = tmp_path / "long.slope"
    path.write_text(Path(AB).read_text() + "seed = 1" + "0" * 5000 + "\n")
    assert cli.main(["info", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 7: bad value for seed: ")


# --- corrupted specs and arguments through every subcommand ---------------

SPEC_KEYS = ("minpoly", "root_interval", "n", "d", "generators", "offset",
             "normalization", "seed")
# small values only: a large radius or r is a large computation
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from(["1/2", "-3/4", "1/0", "x", "", "G12", "G21", "integral-sum"]),
    lambda inner: st.lists(inner, max_size=4), max_leaves=10)
# no decimal digits: a number spelled in them could be a large radius or r
JUNK_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=5)
JUNK_ARG = st.integers(-3, 2).map(str) | JUNK_TEXT | st.sampled_from(["1/0", "1/-2", "0.5"])
PATTERN_DOCS = st.fixed_dictionaries({
    "edges": st.lists(st.fixed_dictionaries({
        "vertex": st.lists(st.integers(-2, 2), min_size=3, max_size=5),
        "direction": st.integers(-1, 5)}), max_size=3),
    "vertices": st.lists(st.lists(st.integers(-2, 2), max_size=5), max_size=2)})
PATTERN_FILES = (st.binary(max_size=12) | JSON_VALUES.map(lambda v: json.dumps(v).encode())
                 | PATTERN_DOCS.map(lambda v: json.dumps(v).encode()))
DEFAULT_ARGS = {
    "info": {}, "coincidences": {}, "equations": {}, "verdict": {},
    "digitize": {"--radius": "2"},
    "regions": {"--pattern": None},
    "rpatterns": {"--r": "0", "--samples": "5"},
}


def _corruptions(command):
    # junk for the command's own options; a command without any gets one of
    # the others, a usage error
    flags = [f for f in DEFAULT_ARGS[command] if f != "--pattern"] \
        or ["--radius", "--r", "--samples"]
    kinds = [
        st.tuples(st.just("replace"), st.sampled_from(SPEC_KEYS),
                  JSON_VALUES.map(json.dumps)),
        st.tuples(st.just("drop"), st.sampled_from(SPEC_KEYS)),
        st.tuples(st.just("line"),
                  st.sampled_from(["x", "n =", "d = [1", "= 3", "seed = 1 2"]) | JUNK_TEXT),
        st.tuples(st.just("arg"), st.sampled_from(flags), JUNK_ARG),
    ]
    if command == "regions":
        kinds.append(st.tuples(st.just("pattern"), PATTERN_FILES))
    return st.one_of(kinds)


COMMANDS = st.sampled_from(sorted(DEFAULT_ARGS)).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(_corruptions(c), min_size=1, max_size=2)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "pattern.json").write_text(json.dumps(
        {"edges": [{"vertex": [0, 0, 0, 0], "direction": 1}]}))
    return d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from([AB, TYPICAL]), drawn=COMMANDS)
def test_corrupted_input_ends_in_an_exit_code(fuzz_dir, base, drawn):
    # every bad input ends in exit code 1-3 and one stderr line, never in
    # an exception
    command, corruptions = drawn
    lines = Path(base).read_text().splitlines()
    args = dict(DEFAULT_ARGS[command])
    if "--pattern" in args:
        args["--pattern"] = str(fuzz_dir / "pattern.json")
    for c in corruptions:
        if c[0] == "replace":
            lines = [l for l in lines if not l.startswith(c[1] + " ")]
            lines.append(f"{c[1]} = {c[2]}")
        elif c[0] == "drop":
            lines = [l for l in lines if not l.startswith(c[1] + " ")]
        elif c[0] == "line":
            lines.insert(len(lines) // 2, c[1])
        elif c[0] == "arg":
            args[c[1]] = c[2]
        else:
            (fuzz_dir / "junk.json").write_bytes(c[1])
            args["--pattern"] = str(fuzz_dir / "junk.json")
    spec = fuzz_dir / "in.slope"
    spec.write_text("\n".join(lines) + "\n")
    argv = [command, str(spec)] + [x for kv in args.items() for x in kv]
    argv += ["--out" if command == "regions" else "--json", str(fuzz_dir / "out.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3)
    if rc:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
