import os

import pytest

from slopechar import specfile
from slopechar.numfield import FILTER_BITS, NumberField

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def spy_past_filter(monkeypatch):
    """A list that collects the numerators of every enclosure a field
    computes at more than FILTER_BITS from now on: the exact fallback of a
    decision that the first enclosure left open (`NumberField.decide`)."""
    calls = []
    enclosure = NumberField.enclosure

    def spy(field, num, bits=FILTER_BITS):
        if bits > FILTER_BITS:
            calls.append(num)
        return enclosure(field, num, bits)

    monkeypatch.setattr(NumberField, "enclosure", spy)
    return calls


def load(name):
    return specfile.load_spec(os.path.join(FIXTURES, name + ".slope"))


@pytest.fixture(scope="session")
def typical_spec():
    return load("typical")


@pytest.fixture(scope="session")
def ab_spec():
    return load("ammann_beenker")


@pytest.fixture(scope="session")
def penrose_spec():
    return load("penrose")


@pytest.fixture(scope="session")
def typical(typical_spec):
    return specfile.to_slope(typical_spec)


@pytest.fixture(scope="session")
def ab(ab_spec):
    return specfile.to_slope(ab_spec)


@pytest.fixture(scope="session")
def penrose(penrose_spec):
    return specfile.to_slope(penrose_spec)


QUAD42 = """\
minpoly = ["-13", "0", "1"]
root_interval = ["-4", "-3"]
n = 4
d = 2
generators = [[["1", "-1"], ["0", "-1"], ["0", "-1"], ["1", "0"]], [["-1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "0"]]]
"""


@pytest.fixture(scope="session")
def quad42():
    """A quadratic 4->2 slope whose window is a hexagon: two of its four
    generators are parallel."""
    return specfile.to_slope(specfile.parse_spec(QUAD42))


HALF42 = """\
minpoly = ["-3", "0", "2"]
root_interval = ["1", "2"]
n = 4
d = 2
generators = [[["-1", "0"], ["0", "0"], ["1", "0"], ["0", "1"]], [["0", "0"], ["1", "0"], ["0", "1"], ["1", "0"]]]
"""


@pytest.fixture(scope="session")
def half42():
    """The generators of ammann_beenker over Q(sqrt(3/2)), whose monic
    minpoly x^2 - 3/2 has a non-integer coefficient."""
    return specfile.to_slope(specfile.parse_spec(HALF42))


# a fixed-stream 5->3 slope of the verdict benchmark over a cubic field:
# NotCharacterized, with a 10-variable Groebner basis
GEN53Q3 = """\
minpoly = ["-2", "3", "2", "1"]
root_interval = ["0", "1"]
n = 5
d = 3
generators = [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"], ["-1", "-1", "-1"], \
["0", "1", "0"]], [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"], \
["1", "1", "-1"]], [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"], ["1", "0", "-1"], \
["-1", "0", "0"]]]
normalization = "G123"
"""


@pytest.fixture(scope="session")
def gen53q3():
    """A 5->3 slope over a cubic field: five generators, a 2-D window."""
    return specfile.to_slope(specfile.parse_spec(GEN53Q3))
