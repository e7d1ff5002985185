"""Command-line front end.

Subcommands: info, digitize, coincidences, equations, verdict, regions,
rpatterns.  All take a slope-spec file; outputs are deterministic given the
spec and seed.  Exit codes, each with one stderr line: 1 bad input
(`InputError`: a usage error, an invalid spec, a vanishing normalization
coordinate, an out-of-range argument or a pattern file that does not fit the
slope; or an `OSError`), 2 `ResourceLimit`, 3 `SingularOffset`.  Any other
exception is a program fault and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import charcheck, coincidence, patterns, specfile, tiling
from .errors import InputError, ResourceLimit, SingularOffset
from .numfield import FieldElem, rat_str
from .slope import grassmann, is_generic, plucker_residuals

EXIT_PARSE = 1
EXIT_RESOURCE = 2
EXIT_SINGULAR = 3

APPROX_DIGITS = 6


def _elem_json(e):
    if isinstance(e, FieldElem):
        return {"coeffs": [rat_str(c) for c in e.coeffs],
                "approx": e.approx(APPROX_DIGITS)}
    return {"coeffs": [rat_str(e)], "approx": f"{float(Fraction(e)):.{APPROX_DIGITS}f}"}


def _load(path):
    spec = specfile.load_spec(path)
    return spec, specfile.to_slope(spec)


def _emit(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_info(args):
    spec, s = _load(args.spec)
    g = grassmann(s)
    generic, witness = is_generic(s)
    doc = {
        "n": s.n,
        "d": s.d,
        "minpoly": [rat_str(c) for c in s.field.minpoly],
        "alpha": s.field.alpha.approx(APPROX_DIGITS),
        "grassmann": {
            "G" + "".join(str(i) for i in t): _elem_json(g[t]) for t in g.tuples()},
        "plucker_residuals_zero": all(r.is_zero() for r in plucker_residuals(g)),
        "generic": generic,
        "witness": list(witness) if witness else None,
        "slope_hash": tiling.slope_hash(s),
    }
    _emit(doc, args.json)
    return 0


def cmd_digitize(args):
    spec, s = _load(args.spec)
    seed = args.seed if args.seed is not None else spec.seed
    offset = specfile.spec_offset(spec, s)
    try:
        radius = Fraction(args.radius)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    except ZeroDivisionError:
        raise InputError(f"radius {args.radius} has a zero denominator") from None
    patch = tiling.digitize(s, offset=offset, radius=radius, seed=seed)
    # everything that can fail runs before the first file is written
    freqs = tiling.tile_frequencies(patch)
    svg = tiling.render_svg(patch) if args.svg else None
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(tiling.patch_json(patch) + "\n")
    if svg is not None:
        with open(args.svg, "w") as fh:
            fh.write(svg)
    print(f"{len(patch)} faces at radius {args.radius}; "
          f"{len(freqs)} tile types")
    return 0


def cmd_coincidences(args):
    spec, s = _load(args.spec)
    out = []
    for t in coincidence.enumerate_types(s.n, s.d):
        lat = coincidence.coincidence_lattice(s, t)
        realized = []
        for v in lat:
            entry = {"vector": list(v)}
            try:
                c = coincidence.realize(s, t, v)
            except coincidence.InconsistentSystem:
                entry["inconsistent"] = True
            else:
                if isinstance(c, coincidence.Degenerate):
                    entry["degenerate"] = True
                else:
                    c2, r = coincidence.minimize_r(s, c)
                    entry["r"] = r
                    entry["window_point"] = [_elem_json(x) for x in c2.window_point]
            realized.append(entry)
        out.append({
            "subsets": [list(sub) for sub in t.subsets],
            "lattice": [list(v) for v in lat],
            "realized": realized,
        })
    _emit({"n": s.n, "d": s.d, "types": out}, args.json)
    return 0


def cmd_equations(args):
    spec, s = _load(args.spec)
    eqs = coincidence.all_equations(s)
    _, names = coincidence.grassmann_variables(s.n, s.d)
    doc = {
        "variables": names,
        "equations": [{
            "subsets": [list(sub) for sub in e.type.subsets],
            "vector": list(e.vector),
            "polynomial": charcheck.poly_json(e.poly, names),
        } for e in eqs],
    }
    _emit(doc, args.json)
    return 0


def cmd_verdict(args):
    spec, s = _load(args.spec)
    v = charcheck.verdict(s, normalize_at=spec.normalization)
    doc = charcheck.verdict_json(v)
    _emit(doc, args.json)
    if args.json:
        print(v.status)
    return 0


def _pattern_from_json(doc, n):
    """The pattern of a `pattern_json` document, with every vertex in Z^n and
    every edge direction in 1..n; InputError otherwise."""
    def point(v):
        if not (isinstance(v, list) and len(v) == n
                and all(type(c) is int for c in v)):
            raise InputError(f"pattern: vertex {v!r} needs {n} integer coordinates")
        return tuple(v)

    def direction(i):
        if type(i) is not int or not 1 <= i <= n:
            raise InputError(f"pattern: edge direction {i!r} is not in 1..{n}")
        return i

    try:
        edges = [(point(e["vertex"]), direction(e["direction"])) for e in doc["edges"]]
        vertices = [point(v) for v in doc.get("vertices", [])]
        return patterns.LiftedPattern(edges, vertices)
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"pattern: not a pattern document ({exc!r})") from None


def cmd_regions(args):
    spec, s = _load(args.spec)
    try:
        with open(args.pattern, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise InputError(str(exc)) from None
    pat = _pattern_from_json(doc, s.n)
    reg = patterns.pattern_region(s, pat)
    text = patterns.region_json(reg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_rpatterns(args):
    spec, s = _load(args.spec)
    atlas = patterns.enumerate_r_patterns(s, args.r, samples=args.samples,
                                          seed=spec.seed)
    doc = {
        "r": args.r,
        "complete": atlas.complete,
        "window_area": _elem_json(atlas.window_area),
        "patterns": [{
            "edges": [{"vertex": list(a), "direction": i}
                      for a, i in sorted(e.pattern.edges)],
            "vertex_count": len(e.pattern.vertices()),
            "area": _elem_json(e.area) if e.area is not None else None,
        } for e in atlas.entries],
    }
    _emit(doc, args.json)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: one line and exit 1, not exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    ap = _Parser(
        prog="slopechar",
        description="Exact cut-and-project tilings and coincidence "
                    "characterization of slopes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("spec", help="slope-spec file")
        p.set_defaults(fn=fn)
        return p

    p = add("info", cmd_info)
    p.add_argument("--json", help="write the report here instead of stdout")

    p = add("digitize", cmd_digitize)
    p.add_argument("--radius", default="10", help="patch radius (rational)")
    p.add_argument("--svg", help="SVG output path")
    p.add_argument("--json", help="JSON output path")
    p.add_argument("--seed", type=int, default=None)

    p = add("coincidences", cmd_coincidences)
    p.add_argument("--json", help="write the report here instead of stdout")

    p = add("equations", cmd_equations)
    p.add_argument("--json", help="write the report here instead of stdout")

    p = add("verdict", cmd_verdict)
    p.add_argument("--json", help="write the report here instead of stdout")

    p = add("regions", cmd_regions)
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--out", help="region JSON output path")

    p = add("rpatterns", cmd_rpatterns)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--json", help="write the report here instead of stdout")

    return ap


_PARSER = None


def main(argv=None):
    global _PARSER
    try:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except (InputError, OSError) as exc:
        return _fail(EXIT_PARSE, f"error: {exc}")
    except ResourceLimit as exc:
        return _fail(EXIT_RESOURCE, f"resource limit: {exc}")
    except SingularOffset as exc:
        return _fail(EXIT_SINGULAR, f"singular offset: {exc}; retry with a different "
                     "seed or a perturbed offset")


def _fail(code, message):
    """Print `message` as one stderr line, also where it quotes a line break
    from the command line, and return the exit code."""
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
