from fractions import Fraction as F
from pathlib import Path

import pytest

from slopechar.errors import InputError
from slopechar.specfile import (SlopeSpec, load_spec, parse_spec, serialize,
                                spec_offset, to_slope)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOOD = """\
# a comment line
minpoly = ["-2", 0, 1]   # trailing comment
root_interval = [1, 2]

n = 4
d = 2
generators = [[[-1], [0], [1], [0, 1]], [[0], [1], [0, 1], [1]]]
normalization = "G12"
"""


def test_parse_basic():
    spec = parse_spec(GOOD)
    assert spec.minpoly == (F(-2), F(0), F(1))
    assert spec.root_interval == (F(1), F(2))
    assert spec.n == 4 and spec.d == 2
    assert spec.normalization == (1, 2)
    assert spec.offset is None and spec.seed == 0
    # short entries are zero-padded to the field degree
    assert spec.generators[0][0] == (F(-1), F(0))
    assert spec.generators[0][3] == (F(0), F(1))


def test_roundtrip_fixtures_byte_identical():
    for name in ("typical", "ammann_beenker", "penrose"):
        path = FIXTURES / f"{name}.slope"
        text = path.read_text()
        spec = parse_spec(text)
        assert serialize(spec) == text
        assert parse_spec(serialize(spec)) == spec


def test_to_slope(ab_spec, ab):
    s = to_slope(ab_spec)
    assert (s.n, s.d) == (ab.n, ab.d)
    assert s.generators.rows == ab.generators.rows


def test_spec_offset_variants(penrose_spec, penrose, ab_spec, ab):
    off = spec_offset(penrose_spec, penrose)
    assert off is not None and len(off) == penrose.n - penrose.d
    assert spec_offset(ab_spec, ab) is None
    explicit = SlopeSpec(ab_spec.minpoly, ab_spec.root_interval, ab_spec.n,
                         ab_spec.d, ab_spec.generators,
                         offset=((F(1, 3), F(0)), (F(0), F(1, 5))))
    off2 = spec_offset(explicit, ab)
    assert off2 == (ab.field.elem([F(1, 3), F(0)]),
                    ab.field.elem([F(0), F(1, 5)]))


@pytest.mark.parametrize("mutation", [
    "minpoly = [1, 2, 3", # bad JSON
    "just words",
    "root_interval = [1]",
    "n = \"4\"",
    "d = 4",  # d >= n
    "generators = [[[1],[0],[0],[0]]]",  # wrong column count
    "generators = [[[1],[0],[0]], [[0],[1],[0]]]",  # wrong entry count
    "normalization = \"12\"",
    "normalization = \"G11\"",
    "offset = [[1]]",  # wrong length
    "seed = \"x\"",
])
def test_parse_errors(mutation):
    key = mutation.split("=")[0].strip() if "=" in mutation else None
    lines = [l for l in GOOD.splitlines() if key is None or
             not l.startswith(key + " ")]
    lines.append(mutation)
    with pytest.raises(InputError):
        parse_spec("\n".join(lines))


def test_missing_key_rejected():
    text = "\n".join(l for l in GOOD.splitlines() if not l.startswith("n ="))
    with pytest.raises(InputError, match="missing key"):
        parse_spec(text)


def test_load_spec_reads_file(tmp_path):
    p = tmp_path / "s.slope"
    p.write_text(GOOD)
    assert load_spec(p) == parse_spec(GOOD)
