"""Independent checks of the documents slopechar wrote.

Nothing here imports slopechar.  Each check recomputes what it needs from the
operation's input with the benchmark's own arithmetic (`algebra`): exact
Q(alpha) arithmetic in sympy for verdicts, mpmath and Python floats for
patches and atlases.  A check returns a list of problems; an empty list means
the document passed.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import jsonschema
import mpmath
import numpy
import sympy

from algebra import (Field, e_basis, eprime_basis, grassmann, numeric_matrix,
                     plucker_relations, rational_rank, zonotope_slabs)

SCHEMAS = {"verdict": "verdict", "digitize": "patch", "rpatterns": "rpatterns"}

# A float margin this close to a window boundary or to the patch radius is
# within rounding distance; such corners are decided again at 40 digits.
FLOAT_EPS = 1e-9
MP_EPS = mpmath.mpf(10) ** -25
# Largest allowed |observed tile frequency - |G_t| / sum |G_t||.  Faces cut by
# the disc boundary bias a radius-10 patch by about one percent.
FREQ_TOL = 0.03
WALK_SAMPLES = 200
# points tried inside a pattern's region before it counts as never occurring
REGION_POINTS = 3000


def validator(root, kind):
    with open(os.path.join(root, "schemas", SCHEMAS[kind] + ".schema.json")) as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def schema_problems(validate, doc):
    return [f"schema: {e.message}" for e in validate.iter_errors(doc)][:3]


def _terms(poly_doc):
    return [(tuple(t["monomial"]), Fraction(t["coefficient"])) for t in poly_doc["terms"]]


def _tuple_of(name):
    return tuple(int(c) for c in name[1:])


# ---------------------------------------------------------------------------
# verdict


def verdict_problems(meta, doc, validate):
    n, d = meta["n"], meta["d"]
    field = Field(meta["minpoly"], meta["interval"])
    problems = schema_problems(validate, doc)
    if problems:
        return problems
    names = doc["variables"]
    expected_names = ["G" + "".join(map(str, t)) for t in combinations(range(1, n + 1), d)]
    if names != expected_names:
        return [f"variables {names} are not the Grassmann coordinates of G({n},{d})"]
    tuples = [_tuple_of(v) for v in names]
    norm = _tuple_of(doc["normalization"])
    if meta.get("normalization") and norm != tuple(meta["normalization"]):
        problems.append(f"normalized at {doc['normalization']}, spec asks "
                        f"G{''.join(map(str, meta['normalization']))}")
    g = grassmann(field, meta["gens"], n, d)
    if g[norm].is_zero:
        return problems + [f"normalization coordinate {doc['normalization']} vanishes"]
    inv = field.inv(g[norm])
    scaled = [field.mul(g[t], inv) for t in tuples]

    def vanishes(poly_doc):
        return field.evaluate(_terms(poly_doc), scaled).is_zero

    for p in doc["groebner_basis"]:
        if not vanishes(p):
            problems.append(f"Groebner element {p['pretty']} does not vanish at the slope")
    status = doc["status"]
    generic = rational_rank(meta["gens"], n, field.degree) == n
    if generic == (status == "NonGenericInput"):
        problems.append(f"status {status} but the slope is {'' if generic else 'not '}generic")
    if status == "CharacterizedByCoincidences":
        if doc.get("r_values") and doc["r_values"][0] != doc.get("r_bound"):
            problems.append("r_bound is not the largest r value")
    elif status == "NotCharacterized":
        problems += _not_characterized_problems(doc, scaled, names, n, d, vanishes)
    else:
        normal = (doc.get("witness") or {}).get("rational_normal_vector") or [0]
        if not any(normal) or any(
                sum(k * e[t] for k, e in zip(normal, col)) != 0
                for col in meta["gens"] for t in range(field.degree)):
            problems.append(f"{normal} is not a rational normal vector of the slope")
        for c in doc.get("consequences", []):
            if not vanishes(c["polynomial"]):
                problems.append(f"consequence {c['polynomial']['pretty']} does not vanish")
    if (n, d) == (4, 2) and status != "NonGenericInput":
        zero_dim = _sympy_zero_dimensional(doc, names, norm, n, d)
        if zero_dim != (status == "CharacterizedByCoincidences"):
            problems.append(f"status {status} but sympy finds the ideal "
                            f"{'' if zero_dim else 'not '}zero-dimensional")
    problems += _fixture_problems(meta.get("fixture"), doc, names)
    return problems


def _not_characterized_problems(doc, scaled, names, n, d, vanishes):
    problems = []
    w = doc.get("witness") or {}
    for p in w.get("family", []):
        if not vanishes(p):
            problems.append(f"family relation {p['pretty']} does not vanish at the slope")
    point = w.get("comparison_point")
    if point is None:
        # the witness is optional in the document; its absence is counted
        # and reported by run.py, not taken for a wrong answer
        return problems
    if set(point) != set(names):
        return problems + [f"comparison point names {sorted(point)}, not every coordinate"]
    values = [Fraction(point[v]) for v in names]
    for p in doc["groebner_basis"]:
        if sum(c * math.prod(x ** e for x, e in zip(values, m))
               for m, c in _terms(p)) != 0:
            problems.append(f"comparison point violates {p['pretty']}")
    index = {_tuple_of(v): i for i, v in enumerate(names)}
    for rel in plucker_relations(n, d):
        if sum(sign * values[index[a]] * values[index[b]] for a, b, sign in rel) != 0:
            problems.append("comparison point violates a Pluecker relation")
            break
    if all(s.is_ground and Fraction(str(s.LC())) == v for s, v in zip(scaled, values)):
        problems.append("comparison point equals the slope")
    return problems


def _sympy_zero_dimensional(doc, names, norm, n, d):
    """sympy's own test on the returned basis, the Pluecker relations and the
    normalization, over all Grassmann variables."""
    syms = sympy.symbols(names)

    def expr(terms):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*[s ** e for s, e in zip(syms, m)]) for m, c in terms)

    index = {_tuple_of(v): i for i, v in enumerate(names)}
    polys = [expr(_terms(p)) for p in doc["groebner_basis"]]
    polys += [sum(sign * syms[index[a]] * syms[index[b]] for a, b, sign in rel)
              for rel in plucker_relations(n, d)]
    polys.append(syms[index[norm]] - 1)
    return sympy.groebner(polys, *syms, order="grevlex").is_zero_dimensional


def _fixture_problems(fixture, doc, names):
    """The fixture facts stated in the paper."""
    status = doc["status"]
    if fixture == "typical" and status != "CharacterizedByCoincidences":
        return [f"typical is {status}, expected CharacterizedByCoincidences"]
    if fixture == "ammann_beenker":
        if status != "NotCharacterized":
            return [f"ammann_beenker is {status}, expected NotCharacterized"]
        i13, i24 = names.index("G13"), names.index("G24")
        want = {(tuple(1 if k in (i13, i24) else 0 for k in range(len(names))), Fraction(1)),
                ((0,) * len(names), Fraction(-2))}
        if doc["normalization"] != "G12" or not any(
                set(_terms(p)) == want for p in doc["witness"].get("family", [])):
            return ["ammann_beenker lacks the family G13*G24 = 2 at G12 = 1"]
    if fixture == "penrose":
        if status != "NonGenericInput":
            return [f"penrose is {status}, expected NonGenericInput"]
        if doc["witness"]["rational_normal_vector"] != [1, 1, 1, 1, 1]:
            return ["penrose normal vector is not (1,1,1,1,1)"]
        i12 = names.index("G12")
        want = {(tuple(e if k == i12 else 0 for k in range(len(names))), Fraction(c))
                for e, c in ((2, 1), (1, -1), (0, -1))}
        if not any(c["variable"] == "G12" and set(_terms(c["polynomial"])) == want
                   for c in doc.get("consequences", [])):
            return ["penrose lacks the consequence G12^2 - G12 - 1"]
    return []


def twin_problems(ops, docs):
    """Each generated slope and its twin must get the same status."""
    status = {}
    for op in ops:
        group = op["meta"].get("group")
        if group and op["id"] in docs:
            status.setdefault(group, set()).add(docs[op["id"]]["status"])
    return [f"{g}: slope and twin disagree ({sorted(s)})"
            for g, s in sorted(status.items()) if len(s) > 1]


# ---------------------------------------------------------------------------
# shared geometry of the window, in floats with a 40-digit fallback


class Window:
    """pi'(x) - offset against the window pi'([0,1]^n), in slopechar's E'
    coordinates, for lattice points x; plus the projection onto E."""

    def __init__(self, meta, offset=None):
        n, d = meta["n"], meta["d"]
        self.n = n
        self.field = Field(meta["minpoly"], meta["interval"])
        u = numeric_matrix(self.field, meta["gens"], n, d)
        self.b = eprime_basis(u)
        self.gens = [[self.b[i, j] for i in range(n - d)] for j in range(n)]
        offset = offset or [mpmath.mpf(0)] * (n - d)
        self.slabs = []
        for nu, lo, hi in zonotope_slabs(self.gens):
            shift = mpmath.fsum(a * o for a, o in zip(nu, offset))
            coef = [mpmath.fsum(a * g for a, g in zip(nu, gj)) for gj in self.gens]
            self.slabs.append((nu, lo + shift, hi + shift, coef))
        self.fslabs = [([float(c) for c in coef], float(lo), float(hi))
                       for _, lo, hi, coef in self.slabs]
        self.ebasis_mp = e_basis(u)
        self.ebasis = [[float(x) for x in row] for row in self.ebasis_mp]
        self.near = 0  # decisions that needed the 40-digit fallback

    def shift_of(self, q):
        """Per-slab shift that moves the window test to the E' point q."""
        return [sum(float(a) * qk for a, qk in zip(nu, q)) for nu, _, _, _ in self.slabs], q

    def margin(self, x, shift=None):
        """Margin of B x - offset (+ the point of `shift`) inside the window:
        positive inside, negative outside, None when it stays within rounding
        distance of the boundary even at 40 digits."""
        m = math.inf
        for k, (coef, lo, hi) in enumerate(self.fslabs):
            s = sum(c * xi for c, xi in zip(coef, x) if xi)
            if shift is not None:
                s += shift[0][k]
            m = min(m, s - lo, hi - s)
        if abs(m) > FLOAT_EPS:
            return m
        self.near += 1
        mm = mpmath.inf
        for nu, lo, hi, coef in self.slabs:
            s = mpmath.fsum(c * xi for c, xi in zip(coef, x) if xi)
            if shift is not None:
                s += mpmath.fsum(a * mpmath.mpf(qk) for a, qk in zip(nu, shift[1]))
            mm = min(mm, s - lo, hi - s)
        return None if abs(mm) < MP_EPS else float(mm)

    def radius(self, x):
        return math.sqrt(sum(sum(e * xi for e, xi in zip(row, x)) ** 2 for row in self.ebasis))


# ---------------------------------------------------------------------------
# digitize


def digitize_problems(meta, doc, validate):
    problems = schema_problems(validate, doc)
    if problems:
        return problems, {}
    n, d = meta["n"], meta["d"]
    field = Field(meta["minpoly"], meta["interval"])
    offset = [field.num(c) for c in doc["offset"]]
    win = Window(meta, offset)
    if Fraction(doc["radius"]) != meta["radius"]:
        return [f"radius {doc['radius']} is not the requested {meta['radius']}"], {}
    radius = float(meta["radius"])
    got = {(tuple(f["anchor"]), tuple(f["directions"])) for f in doc["faces"]}
    status, singular = {}, set()

    def inside(x):
        if x not in status:
            status[x] = win.margin(x)
            if status[x] is None:
                singular.add(x)
        return status[x]

    step = max(math.sqrt(sum(row[j] ** 2 for row in win.ebasis)) for j in range(n))
    reach = radius + (d + 3) * step
    seeds = [(0,) * n] + sorted(a for a, _ in got)
    seed = next((x for x in seeds if (inside(x) or 0) > 0), None)
    if seed is None:
        return ["no lattice point of the patch projects inside the window"], {}
    seen, frontier = {seed}, [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for j, sg in product(range(n), (1, -1)):
                y = v[:j] + (v[j] + sg,) + v[j + 1:]
                if y in seen or win.radius(y) > reach:
                    continue
                if (inside(y) or 0) > 0:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    want, near_radius = set(), 0
    for v in seen:
        for dirs in combinations(range(1, n + 1), d):
            corners = [tuple(v[k] + (1 if (k + 1) in sub else 0) for k in range(n))
                       for r in range(d + 1) for sub in combinations(dirs, r)]
            if not all((inside(c) or -1) > 0 for c in corners):
                continue
            dist = min(win.radius(c) for c in corners)
            if abs(dist - radius) < FLOAT_EPS:
                near_radius += 1
                got.discard((v, dirs))
                continue
            if dist <= radius:
                want.add((v, dirs))
    if singular:
        problems.append(f"lattice points on the window boundary: {sorted(singular)[:2]}")
    missing, extra = want - got, got - want
    if missing:
        problems.append(f"{len(missing)} faces missing, e.g. {sorted(missing)[:2]}")
    if extra:
        problems.append(f"{len(extra)} faces not in the tiling, e.g. {sorted(extra)[:2]}")
    info = {"faces": len(doc["faces"]), "near_boundary": win.near,
            "near_radius": near_radius}
    if not doc["faces"]:
        return problems + ["empty patch"], info
    # tile frequencies against |G_t| / sum |G_t|
    g = grassmann(field, meta["gens"], n, d)
    weights = {t: abs(field.num_elem(v)) for t, v in g.items()}
    total = sum(weights.values())
    counts = {}
    for f in doc["faces"]:
        counts[tuple(f["directions"])] = counts.get(tuple(f["directions"]), 0) + 1
    worst = max(abs(counts.get(t, 0) / len(doc["faces"]) - float(w / total))
                for t, w in weights.items())
    info["freq_error"] = worst
    if worst > FREQ_TOL:
        problems.append(f"tile frequencies off by {worst:.3f} > {FREQ_TOL}")
    # the projected tiles cover the disc of the stated radius
    if d == 2:
        cols = [[row[j] for row in win.ebasis] for j in range(n)]
        area = sum(abs(cols[i - 1][0] * cols[j - 1][1] - cols[i - 1][1] * cols[j - 1][0])
                   for _, (i, j) in ((f["anchor"], f["directions"]) for f in doc["faces"]))
        info["area_over_disc"] = area / (math.pi * radius ** 2)
        if area < math.pi * radius ** 2:
            problems.append(f"tiles cover area {area:.2f} < disc area {math.pi * radius ** 2:.2f}")
    return problems, info


# ---------------------------------------------------------------------------
# atlas


def _canonical(edges, origin):
    verts = {origin}
    for a, i in edges:
        verts.add(a)
        verts.add(a[:i - 1] + (a[i - 1] + 1,) + a[i:])
    v0 = min(verts)
    return frozenset((tuple(x - y for x, y in zip(a, v0)), i) for a, i in edges)


def walk_pattern(win, q, r):
    """The union of in-window lattice walks of length r + 1 from the window
    point q (float E' coordinates), canonical; None near a boundary."""
    n = win.n
    shift = win.shift_of(q)
    origin = (0,) * n
    dist, frontier, edges = {origin: 0}, [origin], set()
    for level in range(r + 1):
        nxt = []
        for x in frontier:
            for j, sg in product(range(n), (1, -1)):
                y = x[:j] + (x[j] + sg,) + x[j + 1:]
                m = win.margin(y, shift)
                if m is None:
                    return None  # too close to a boundary to decide
                if m < 0:
                    continue
                edges.add((x, j + 1) if sg > 0 else (y, j + 1))
                if y not in dist:
                    dist[y] = level + 1
                    nxt.append(y)
        frontier = nxt
    return _canonical(edges, origin)


def _realized_in_region(win, pattern, r, rng):
    """True when the walk from some window point gives `pattern` (r = 0).

    The points where every vertex x of the pattern, seen from its centre c,
    lies in the window form the polytope L <= nu . q <= H over the window's
    slab normals nu.  Points are drawn uniformly from its bounding box, found
    from the vertices of the plane arrangement.
    """
    if r != 0:
        raise ValueError("region search is for vertex stars (r = 0)")
    n, m = win.n, len(win.gens[0])
    ends = [(a, a[:i - 1] + (a[i - 1] + 1,) + a[i:]) for a, i in pattern]
    normals = numpy.array([[float(x) for x in nu] for nu, _, _, _ in win.slabs])
    for c in set.intersection(*[set(e) for e in ends]):
        verts = {tuple(x - y for x, y in zip(v, c)) for e in ends for v in e}
        lo = numpy.array([max(lo - sum(k * x for k, x in zip(coef, v)) for v in verts)
                          for coef, lo, _ in win.fslabs])
        hi = numpy.array([min(hi - sum(k * x for k, x in zip(coef, v)) for v in verts)
                          for coef, _, hi in win.fslabs])
        if (lo >= hi).any():
            continue
        planes = [(nu, b) for nu, l, h in zip(normals, lo, hi) for b in (l, h)]
        corners = []
        for sub in combinations(planes, m):
            a = numpy.array([nu for nu, _ in sub])
            if abs(numpy.linalg.det(a)) < 1e-12:
                continue
            q = numpy.linalg.solve(a, numpy.array([b for _, b in sub]))
            if ((normals @ q >= lo - 1e-9) & (normals @ q <= hi + 1e-9)).all():
                corners.append(q)
        if not corners:
            continue
        box_lo, box_hi = numpy.min(corners, axis=0), numpy.max(corners, axis=0)
        for _ in range(REGION_POINTS):
            q = [lo_k + (hi_k - lo_k) * rng.random() for lo_k, hi_k in zip(box_lo, box_hi)]
            proj = normals @ numpy.array(q)
            if ((proj > lo) & (proj < hi)).all() and walk_pattern(win, q, r) == pattern:
                return True
    return False


def _signed_permutation_symmetries(win):
    """Signed permutations of R^n that map the slope onto itself, each with
    +1 for a rotation of E and -1 for a reflection."""
    n = win.n
    e = win.ebasis_mp
    out = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            # image of each basis vector of E, re-expressed in that basis
            imgs = []
            for row in e:
                v = [mpmath.mpf(0)] * n
                for j in range(n):
                    v[perm[j]] = signs[j] * row[j]
                imgs.append(v)
            coords = [[mpmath.fsum(a * b for a, b in zip(v, row)) for row in e] for v in imgs]
            resid = max(abs(x - mpmath.fsum(c * row[k] for c, row in zip(cs, e)))
                        for v, cs in zip(imgs, coords) for k, x in enumerate(v))
            if resid < MP_EPS:
                det = mpmath.det(mpmath.matrix(coords))
                out.append((perm, signs, 1 if det > 0 else -1))
    return out


def rotation_classes(patterns, group):
    def transform(p, perm, signs):
        out = set()
        for a, i in p:
            b = a[:i - 1] + (a[i - 1] + 1,) + a[i:]
            ta, tb = [0] * len(a), [0] * len(a)
            for j in range(len(a)):
                ta[perm[j]] = signs[j] * a[j]
                tb[perm[j]] = signs[j] * b[j]
            k = next(j for j in range(len(a)) if ta[j] != tb[j])
            lo = tuple(ta) if ta[k] < tb[k] else tuple(tb)
            out.add((lo, k + 1))
        return _canonical(out, min(v for v, _ in out))

    return {min(tuple(sorted(transform(p, perm, signs))) for perm, signs in group)
            for p in patterns}


def atlas_problems(meta, doc, validate, rng: random.Random):
    problems = schema_problems(validate, doc)
    if problems:
        return problems, {}
    n, d, r = meta["n"], meta["d"], meta["r"]
    win = Window(meta)
    m = n - d
    atlas = {}
    for p in doc["patterns"]:
        atlas[_canonical({(tuple(e["vertex"]), e["direction"]) for e in p["edges"]},
                         (0,) * n)] = p
    if len(atlas) != len(doc["patterns"]):
        problems.append("patterns listed twice")
    info = {"patterns": len(atlas)}
    window_area = None
    if m == 2:
        if not doc["complete"]:
            problems.append("2-dimensional atlas not marked complete")
        window_area = mpmath.fsum(abs(g[0] * h[1] - g[1] * h[0])
                                  for g, h in combinations(win.gens, 2))
        total = mpmath.fsum(win.field.num(p["area"]["coeffs"]) for p in doc["patterns"])
        if abs(total - window_area) > MP_EPS * window_area:
            problems.append(f"pattern areas sum to {mpmath.nstr(total, 12)}, "
                            f"window area is {mpmath.nstr(window_area, 12)}")
    # window points: uniform in the bounding box, kept when strictly inside
    box = [(float(mpmath.fsum(min(0, g[k]) for g in win.gens)),
            float(mpmath.fsum(max(0, g[k]) for g in win.gens))) for k in range(m)]

    def sample():
        while True:
            q = [lo + (hi - lo) * rng.random() for lo, hi in box]
            inside = win.margin((0,) * n, win.shift_of(q))
            if inside is not None and inside > 0:
                pat = walk_pattern(win, q, r)
                if pat is not None:
                    return q, pat

    hits = {}
    if m == 2:
        # a certified atlas holds the pattern of every window point, in
        # proportion to its area
        for _ in range(WALK_SAMPLES):
            q, pat = sample()
            if pat not in atlas:
                problems.append(f"the pattern at window point {q} is not in the atlas")
                break
            hits[pat] = hits.get(pat, 0) + 1
        total_hits = sum(hits.values())
        for pat, p in atlas.items():
            if problems:
                break
            share = float(win.field.num(p["area"]["coeffs"]) / window_area)
            k = hits.get(pat, 0)
            if abs(k - share * total_hits) > 5 * math.sqrt(total_hits * share * (1 - share)) + 2:
                problems.append(f"a pattern of area share {share:.4f} was found at "
                                f"{k} of {total_hits} points")
    else:
        # a sampled atlas is a lower bound: each of its patterns must occur
        # at some window point, looked for first among uniform points and
        # then inside the region where all the pattern's vertices lie in the
        # window
        unseen = set(atlas)
        for _ in range(WALK_SAMPLES):
            _, pat = sample()
            hits[pat] = hits.get(pat, 0) + 1
            unseen.discard(pat)
        unseen = {p for p in unseen if not _realized_in_region(win, p, r, rng)}
        if unseen:
            problems.append(f"{len(unseen)} atlas patterns occur at no window point "
                            f"of their region ({REGION_POINTS} tried)")
        if doc["complete"] and set(hits) - set(atlas):
            problems.append("atlas marked complete but misses sampled patterns")
    info.update(samples=sum(hits.values()), near_boundary=win.near)
    if meta.get("fixture") == "ammann_beenker" and r == 0:
        group = [(perm, signs) for perm, signs, o in _signed_permutation_symmetries(win)
                 if o > 0]
        classes = rotation_classes(atlas, group)
        info.update(rotations=len(group), classes=len(classes))
        if len(atlas) != 41 or len(group) != 8 or len(classes) != 6:
            problems.append(f"ammann_beenker r=0: {len(atlas)} vertex stars in "
                            f"{len(classes)} classes under {len(group)} rotations; "
                            "expected 41 in 6 under 8")
    return problems, info
