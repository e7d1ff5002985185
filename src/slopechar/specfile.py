"""Slope-spec files: `key = value` lines with JSON values, rationals as "p/q".

Keys: minpoly, root_interval, n, d, generators, and optionally offset,
normalization, seed.  Generators are per-column lists of entries, each entry
the ascending coefficient list of an element of Q(alpha).  `serialize` is the
canonical form; files written with it parse back byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .numfield import NumberField, rat_str
from .slope import Slope


@dataclass
class SlopeSpec:
    minpoly: tuple
    root_interval: tuple
    n: int
    d: int
    generators: tuple  # d columns, each n entries, each a coeff tuple
    offset: object = None  # None | "integral-sum" | tuple of coeff tuples
    normalization: tuple | None = None  # Grassmann index tuple, e.g. (1, 2)
    seed: int = 0


def _int(v, key) -> int:
    """The integer value v of `key`; a JSON true or false is not one."""
    if type(v) is not int:
        raise InputError(f"{key}: expected an integer, got {v!r}")
    return v


def _rat(v, key) -> Fraction:
    """The rational value v of `key`: an integer or a "p/q" string."""
    if type(v) is int:
        return Fraction(v)
    if not isinstance(v, str):
        raise InputError(f"{key}: expected integer or 'p/q' string, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{key}: invalid rational {v!r}") from None


def _entry(v, k, key):
    if not isinstance(v, list):
        v = [v]
    coeffs = [_rat(c, key) for c in v]
    if len(coeffs) > k:
        raise InputError(f"{key}: entry {v!r} has more than {k} coefficients")
    return tuple(coeffs + [Fraction(0)] * (k - len(coeffs)))


def parse_spec(text: str) -> SlopeSpec:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            raw[key] = json.loads(value.strip())
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep
            raise InputError(f"line {lineno}: bad value for {key}: {exc}") from exc
    for key in ("minpoly", "root_interval", "n", "d", "generators"):
        if key not in raw:
            raise InputError(f"missing key: {key}")
    minpoly, interval = raw["minpoly"], raw["root_interval"]
    if not isinstance(minpoly, list) or len(minpoly) < 2:
        raise InputError(f"minpoly: expected a list of at least 2 coefficients, "
                         f"got {minpoly!r}")
    if not isinstance(interval, list) or len(interval) != 2:
        raise InputError(f"root_interval: expected a list of two endpoints, "
                         f"got {interval!r}")
    minpoly = tuple(_rat(c, "minpoly") for c in minpoly)
    interval = tuple(_rat(c, "root_interval") for c in interval)
    n, d = _int(raw["n"], "n"), _int(raw["d"], "d")
    if not 0 < d < n:
        raise InputError("need integers 0 < d < n")
    k = len(minpoly) - 1
    gens = raw["generators"]
    if not isinstance(gens, list) or len(gens) != d:
        raise InputError(f"generators must list {d} vectors")
    columns = []
    for g in gens:
        if not isinstance(g, list) or len(g) != n:
            raise InputError(f"each generator needs {n} entries")
        columns.append(tuple(_entry(e, k, "generators") for e in g))
    offset = raw.get("offset")
    if offset is not None and offset != "integral-sum":
        if not isinstance(offset, list) or len(offset) != n - d:
            raise InputError(f"offset needs {n - d} entries or 'integral-sum'")
        offset = tuple(_entry(e, k, "offset") for e in offset)
    normalization = raw.get("normalization")
    if normalization is not None:
        if not (isinstance(normalization, str) and normalization.startswith("G")
                and normalization[1:].isdecimal()):
            raise InputError(f"normalization: expected a name like \"G12\", "
                             f"got {normalization!r}")
        axes = tuple(int(c) for c in normalization[1:])
        # a Grassmann coordinate is indexed by ascending axes; swapping two
        # axes would flip its sign, so the name is not reordered
        if len(axes) != d or not all(1 <= i <= n for i in axes) \
                or any(i >= j for i, j in zip(axes, axes[1:])):
            raise InputError(f"normalization must name {d} ascending axes in 1..{n}, "
                             f"got {normalization!r}")
        normalization = axes
    seed = _int(raw.get("seed", 0), "seed")
    return SlopeSpec(minpoly, interval, n, d, tuple(columns),
                     offset, normalization, seed)


def load_spec(path) -> SlopeSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    return parse_spec(text)


def to_slope(spec: SlopeSpec) -> Slope:
    try:
        field = NumberField(list(spec.minpoly), spec.root_interval)
    except InputError as exc:
        raise InputError(f"minpoly and root_interval: {exc}") from exc
    gens = [[list(e) for e in col] for col in spec.generators]
    try:
        return Slope(field, spec.n, spec.d, gens)
    except InputError as exc:
        raise InputError(f"generators: {exc}") from exc


def spec_offset(spec: SlopeSpec, slope: Slope):
    """Resolve the spec's offset to E'-coordinates (None if unspecified)."""
    if spec.offset is None:
        return None
    if spec.offset == "integral-sum":
        from .tiling import integral_sum_offset
        return integral_sum_offset(slope)
    return tuple(slope.field.elem(list(e)) for e in spec.offset)


def _json_rat_list(vals):
    return "[" + ", ".join(json.dumps(rat_str(v)) for v in vals) + "]"


def serialize(spec: SlopeSpec) -> str:
    lines = [
        f"minpoly = {_json_rat_list(spec.minpoly)}",
        f"root_interval = {_json_rat_list(spec.root_interval)}",
        f"n = {spec.n}",
        f"d = {spec.d}",
        "generators = [" + ", ".join(
            "[" + ", ".join(_json_rat_list(e) for e in col) + "]"
            for col in spec.generators) + "]",
    ]
    if spec.offset == "integral-sum":
        lines.append('offset = "integral-sum"')
    elif spec.offset is not None:
        lines.append("offset = [" + ", ".join(
            _json_rat_list(e) for e in spec.offset) + "]")
    if spec.normalization is not None:
        name = "G" + "".join(str(i) for i in spec.normalization)
        lines.append(f'normalization = "{name}"')
    if spec.seed:
        lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"
