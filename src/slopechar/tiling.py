"""Digitization of a slope into a canonical projection tiling patch.

A face of Z^n is selected when all 2^d of its corners project inside the
(translated) window; the patch is grown by BFS over the in-window vertices,
which form a single connected component.  The walk runs on packed integer
keys, one 64-bit field per coordinate, so a unit step is one addition; each
point's slab enclosure sums are stepped from its parent's, and a face's
corners are read off its anchor's key by adding fixed key offsets.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul, sub

from .errors import InputError, SingularOffset
from .geometry import Window, complementary_zonotope, eprime_basis, window
from .linalg import dot, solve_right
from .numfield import FILTER_BITS
from .slope import Slope


@dataclass(frozen=True, order=True)
class Face:
    """Unit d-face of Z^n: integer anchor + ascending 1-based directions."""
    anchor: tuple
    directions: tuple

    def corners(self):
        d = len(self.directions)
        out = []
        for mask in range(1 << d):
            c = list(self.anchor)
            for b in range(d):
                if mask >> b & 1:
                    c[self.directions[b] - 1] += 1
            out.append(tuple(c))
        return out


def _slab_rows(w: Window, b):
    """(nu, den, cols, lo, hi) per slab of w, where coefficient t of
    nu . B x is sum(map(mul, x, cols[t])) / den with integer cols and den > 0.
    Kept on the window for its basis: an offset moves only the bounds."""
    got = getattr(w, "_lattice_rows", None)
    if got is None or got[0] is not b:
        rows = []
        for nu, lo, hi in w.slabs:
            row = [dot(nu, b.col(j)) for j in range(b.ncols)]
            den = math.lcm(*(e.den for e in row))
            rows.append((nu, den, tuple(zip(*(_cleared(e, den) for e in row))), lo, hi))
        got = w._lattice_rows = (b, rows)
    return got[1]


def _cleared(e, den):
    """The numerators of e over den, a multiple of e.den."""
    scale = den // e.den
    return tuple(c * scale for c in e.num)


def _bound_enclosure(bound, common):
    """(num, l, u): the numerators of a slab bound over `common`, and
    integers l <= 2^FILTER_BITS common bound <= u.  An enclosure of the
    numerators is as wide as their size, not as the bound's value: an offset
    with large cancelling coefficients makes it wider than the enclosure of
    any walk point's slab value.  So they are enclosed with as many more bits
    as their absolute sum has, rounded up to a multiple of FILTER_BITS so
    that a field builds few precisions, and shifted back: l and u are at
    most 3 apart."""
    num = _cleared(bound, common)
    extra = sum(map(abs, num)).bit_length()
    bits = -(-(FILTER_BITS + extra) // FILTER_BITS) * FILTER_BITS
    lo, hi = bound.field.enclosure(num, bits)
    shift = bits - FILTER_BITS
    return num, lo >> shift, -(-hi >> shift)


class LatticeMembership:
    """Cached exact membership of B x in (window + offset) for x in Z^n.

    Each slab lo <= nu . (B x - offset) <= hi is kept as integer coefficient
    vectors over one positive common denominator: a column per coordinate of
    x and the bounds.  The columns come from the rows cached on the window;
    the offset only moves the bounds.

    Beside them each slab keeps the field's fixed-point enclosure
    (`NumberField.enclosure`) of every column and of both bounds, so a test
    first encloses the slab value as sum x_j [L_j, U_j], n integer products,
    and compares it with the bounds' enclosures (the certified dynamic filter
    of Bronnimann, Burnikel and Pion, 2001, one enclosure per column).  Only
    where the enclosures overlap does the exact test run: the integer dot
    products and two calls of the field's sign filter.  `decide` takes the
    enclosure sums as given, so a walk can step them from a neighbour's;
    `status` computes them from scratch and caches its answer."""

    def __init__(self, w: Window, b, offset):
        self.field = field = b[0, 0].field
        self.offset = offset = tuple(offset)
        self.tests = []
        for nu, den, cols, lo, hi in _slab_rows(w, b):
            shift = dot(nu, offset)
            lo, hi = lo + shift, hi + shift
            common = math.lcm(den, lo.den, hi.den)
            if common != den:
                cols = tuple(tuple(v * (common // den) for v in col) for col in cols)
            # 2^(FILTER_BITS + 1) common (nu . B x) lies within m -+ r for
            # m = sum x_j mid_j and r = sum |x_j| rad_j: the sum of
            # x_j [L_j, U_j] with the ends swapped where x_j < 0
            encs = [field.enclosure(col) for col in zip(*cols)]
            mid = tuple(l + u for l, u in encs)
            rad = tuple(u - l for l, u in encs)
            lo, lo_l, lo_u = _bound_enclosure(lo, common)
            hi, hi_l, hi_u = _bound_enclosure(hi, common)
            self.tests.append((cols, lo, hi, mid, rad,
                               2 * lo_l, 2 * lo_u, 2 * hi_l, 2 * hi_u))
        self.cache = {}

    def sums(self, x):
        """The enclosure sums of x, slab by slab and lazily: m = sum x_j mid_j
        and r = sum |x_j| rad_j (see `__init__`)."""
        ax = tuple(map(abs, x))
        return ((sum(map(mul, x, slab[3])) for slab in self.tests),
                (sum(map(mul, ax, slab[4])) for slab in self.tests))

    def decide(self, x, m, r) -> int:
        """1 if B x - offset lies strictly inside every slab, 0 if on a bound
        of some slab and outside none, -1 outside one; m and r are the slabs'
        enclosure sums of x, taken lazily.  Each slab is decided by the
        enclosure filter, or where the enclosures overlap by the exact test:
        the integer dot products and the field's sign filter."""
        result = 1
        for slab, mt, rt in zip(self.tests, m, r):
            cols, lo, hi, _, _, lo_l, lo_u, hi_l, hi_u = slab
            if lo_u < mt - rt and mt + rt < hi_l:
                continue
            if mt + rt < lo_l or hi_u < mt - rt:
                return -1
            sign_of = self.field.sign_of
            acc = [sum(map(mul, x, col)) for col in cols]
            # a bound whose enclosure is clear of the value's is not tested
            side = 1 if lo_u < mt - rt else sign_of([a - c for a, c in zip(acc, lo)])
            if side >= 0 and not mt + rt < hi_l:
                side = min(side, sign_of([c - a for a, c in zip(acc, hi)]))
            if side < 0:
                return -1
            result = min(result, side)
        return result

    def status(self, x) -> int:
        """1 inside, 0 boundary, -1 outside."""
        got = self.cache.get(x)
        if got is not None:
            return got
        result = self.cache[x] = self.decide(x, *self.sums(x))
        return result


class Patch:
    """Faces of a digitized patch; `member` is the membership that selected
    them, kept so later lattice tests at the same offset reuse its cache."""

    def __init__(self, slope: Slope, offset, faces, radius, member):
        self.slope = slope
        self.offset = tuple(offset)
        self.faces = sorted(faces)
        self.radius = radius
        self.member = member

    def vertex_set(self):
        verts = set()
        for f in self.faces:
            verts.update(f.corners())
        return verts

    def __len__(self):
        return len(self.faces)


def _float_pi_basis(s: Slope):
    """Orthonormal float basis of E; used only for radius cuts and rendering."""
    cols = [[float(e) for e in s.generators.col(j)] for j in range(s.d)]
    ortho = []
    for v in cols:
        w = v[:]
        for u in ortho:
            c = sum(a * b for a, b in zip(w, u))
            w = [a - c * b for a, b in zip(w, u)]
        norm = math.sqrt(sum(a * a for a in w))
        ortho.append([a / norm for a in w])
    return ortho


def _pi_coords(basis, x):
    return tuple(sum(b[j] * x[j] for j in range(len(x))) for b in basis)


def draw_offset(s: Slope, seed):
    """Small random rational offset placing the seed vertex well inside."""
    rng = random.Random(seed)
    w = window(s)
    m = s.n - s.d
    center = w.center
    jitter = [Fraction(rng.randint(-4000, 4000), 100003) for _ in range(m)]
    # offset o so that 0 lands near the center of W + o
    return tuple(-center[j] + s.field.from_rational(jitter[j]) for j in range(m))


def integral_sum_offset(s: Slope):
    """Offset whose component along pi'(1,...,1) sits at an integer level.

    Requires (1,...,1) orthogonal to the slope (as for the five-fold slopes,
    where pi' Z^n then falls on parallel lattice planes and an integral sum
    level selects the classical tilings).  The jitter moves the offset
    within the plane orthogonal to that direction.
    """
    n, field = s.n, s.field
    b = eprime_basis(s)
    delta = (1,) * n
    bdelta = b.apply(delta)
    lam = solve_right(b.transpose(), [field.from_rational(Fraction(1))] * n)
    if lam is None:
        raise InputError("integral-sum offset: (1,...,1) is not orthogonal to the slope")

    def lam_of(y):
        return sum((lam[j] * y[j] for j in range(len(y))), start=field.zero)

    w = window(s)
    jitter = (Fraction(3, 97), Fraction(5, 101), Fraction(7, 103))[:n - s.d]
    jit = tuple(field.from_rational(q) for q in jitter)
    lj = lam_of(jit)
    inplane = tuple(jit[t] - lj * bdelta[t] / n for t in range(len(jit)))
    raw = tuple(-w.center[t] + inplane[t] for t in range(len(jit)))
    lvl = lam_of(raw)
    # push the sum level to the nearest integer above
    frac = lvl - field.from_rational(Fraction(lvl.floor()))
    shift = (field.one - frac) / n if not frac.is_zero() else field.zero
    return tuple(raw[t] + bdelta[t] * shift for t in range(len(raw)))


def digitize(s: Slope, offset=None, radius=Fraction(10), seed=0) -> Patch:
    """Patch of all faces in-window whose projection meets the radius ball."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    attempts = 8 if offset is None else 1
    last = None
    for attempt in range(attempts):
        o = draw_offset(s, f"{seed}:{attempt}") if offset is None else tuple(offset)
        try:
            return _digitize_at(s, o, radius)
        except SingularOffset as exc:
            last = exc
            if offset is not None:
                raise
    raise last


# A lattice point x is walked as the key sum (x_j - o_j + 2^63) << 64 j, o the
# walk's start: a unit step adds or subtracts 1 << 64 j, and no walk takes the
# 2^63 steps that would carry a field into the next.
_KEY_BITS = 64
_KEY_BIAS = 1 << 63


def _step_sums(m, r, mid, rad, xj, sgn):
    """The enclosure sums (m, r) of x + sgn e_j from those of x, where mid and
    rad are column j of every slab's mid and rad: m moves by sgn mid, and r by
    rad as |x_j| grows or shrinks."""
    return (list(map(add if sgn > 0 else sub, m, mid)),
            list(map(add if xj * sgn >= 0 else sub, r, rad)))


def _digitize_at(s: Slope, offset, radius) -> Patch:
    n, d = s.n, s.d
    b = eprime_basis(s)
    w = window(s)
    member = LatticeMembership(w, b, offset)
    basis = _float_pi_basis(s)
    unit_pi = [_pi_coords(basis, [1.0 if j == i else 0.0 for j in range(n)])
               for i in range(n)]
    step = max(math.sqrt(sum(c * c for c in u)) for u in unit_pi)
    reach = float(radius) + d * step + 2 * step
    r = float(radius)
    reach2, r2 = reach * reach, r * r

    def norm2(x):
        p = [0.0] * d
        for j, xj in enumerate(x):
            if xj:
                for t in range(d):
                    p[t] += unit_pi[j][t] * xj
        return sum(a * a for a in p)

    origin = (0,) * n
    st = member.status(origin)
    if st == 0:
        raise SingularOffset("seed vertex on window boundary; perturb the offset")
    if st < 0:
        origin = _find_seed(member, b, [o + c for o, c in zip(offset, w.center)])
    # the walk: in-window points within reach of the origin, by key, each with
    # its point, its enclosure sums and whether it lies in the radius ball;
    # `known` holds the status of every point tested
    unit = [1 << _KEY_BITS * j for j in range(n)]
    mids = [tuple(slab[3][j] for slab in member.tests) for j in range(n)]
    rads = [tuple(slab[4][j] for slab in member.tests) for j in range(n)]
    key = _KEY_BIAS * sum(unit)
    ms, rs = map(list, member.sums(origin))
    inside = {key: (origin, ms, rs, norm2(origin) <= r2)}
    known = {key: 1}
    frontier = deque([key])
    while frontier:
        key = frontier.popleft()
        v, ms, rs, _ = inside[key]
        for j in range(n):
            vj, u, mid, rad = v[j], unit[j], mids[j], rads[j]
            for sgn, nk in ((1, key + u), (-1, key - u)):
                if nk in known:
                    continue
                nb = v[:j] + (vj + sgn,) + v[j + 1:]
                sums = _step_sums(ms, rs, mid, rad, vj, sgn)
                st = known[nk] = member.cache[nb] = member.decide(nb, *sums)
                if st > 0:
                    q = norm2(nb)
                    if q <= reach2:
                        inside[nk] = (nb, *sums, q <= r2)
                        frontier.append(nk)
                elif st == 0:
                    raise SingularOffset(
                        f"lattice point {nb} projects onto the window boundary; "
                        "perturb the offset slightly")
    # the corners of Face(v, dirs) other than v are v + step, in the order
    # of Face.corners, at key offsets sum step_j << 64 j
    faces_of = []
    for dirs in combinations(range(1, n + 1), d):
        steps = Face((0,) * n, dirs).corners()[1:]
        faces_of.append((dirs, [(sum(map(mul, step, unit)), step) for step in steps]))
    faces = []
    for key, (v, _, _, near) in inside.items():
        for dirs, corners in faces_of:
            hit, far = near, []
            for off, step in corners:
                ck = key + off
                got = inside.get(ck)
                if got is not None:
                    hit = hit or got[3]
                    continue
                st = known.get(ck)
                if st is None:
                    st = known[ck] = member.status(tuple(map(add, v, step)))
                if st <= 0:
                    if st == 0:
                        raise SingularOffset("face corner on window boundary")
                    break
                far.append(tuple(map(add, v, step)))
            else:
                if hit or any(norm2(c) <= r2 for c in far):
                    faces.append(Face(v, dirs))
    return Patch(s, offset, faces, radius, member)


def _find_seed(member: LatticeMembership, b, target):
    """A lattice point x with B x strictly inside the translated window, whose
    center has E' coordinates `target`.  Breadth-first search in Z^n from the
    rounding of y = B^T (B B^T)^-1 target, the point of E' with B y = target,
    so the search starts next to the center wherever the offset puts it."""
    bt = b.transpose()
    start = tuple(round(float(c)) for c in bt.apply(solve_right(b * bt, target)))
    frontier = deque([start])
    seen = {start}
    budget = 2_000_000
    while frontier and budget:
        v = frontier.popleft()
        budget -= 1
        if member.status(v) > 0:
            return v
        for j in range(len(v)):
            for sgn in (1, -1):
                nb = v[:j] + (v[j] + sgn,) + v[j + 1:]
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
    raise InputError("could not find a lattice point projecting in the window")


def face_selected_by_anchor(s: Slope, face: Face, offset) -> bool:
    """Complementary-zonotope anchor test, equivalent to the 2^d-corner test.

    The zonotope of each direction tuple is cached on the slope, with its
    membership at the last offset asked for."""
    cache = vars(s).setdefault("_anchor_zonotopes", {})
    entry = cache.get(face.directions)
    offset = tuple(offset)
    if entry is None or entry[1].offset != offset:
        zc = entry[0] if entry else complementary_zonotope(s, face.directions)
        entry = cache[face.directions] = (zc, LatticeMembership(zc, eprime_basis(s), offset))
    return entry[1].status(face.anchor) == 1


def tile_frequencies(p: Patch):
    """Relative frequency of each direction tuple among the patch's tiles."""
    if not p.faces:
        raise InputError("no faces in patch")
    counts = Counter(f.directions for f in p.faces)
    total = sum(counts.values())
    return {dirs: Fraction(c, total) for dirs, c in sorted(counts.items())}


_PALETTE = ["#4878a8", "#e49444", "#5ba053", "#d1605e", "#857aab",
            "#8c6d31", "#d684bd", "#7f7f7f", "#bcbd39", "#2ca8c2"]


def render_svg(p: Patch) -> str:
    """Deterministic SVG 1.1 document, one polygon per tile (d = 2 only)."""
    if p.slope.d != 2:
        raise InputError("SVG rendering needs d = 2")
    basis = _float_pi_basis(p.slope)
    n = p.slope.n
    unit_pi = [_pi_coords(basis, [1.0 if j == i else 0.0 for j in range(n)])
               for i in range(n)]

    def project(x):
        px = sum(unit_pi[j][0] * x[j] for j in range(n))
        py = sum(unit_pi[j][1] * x[j] for j in range(n))
        return px, py

    type_index = {dirs: i for i, dirs in
                  enumerate(sorted({f.directions for f in p.faces}))}
    polys = []
    xs, ys = [0.0], [0.0]
    for f in p.faces:
        i, j = f.directions
        a = f.anchor
        ring = [a,
                tuple(a[k] + (1 if k == i - 1 else 0) for k in range(n)),
                tuple(a[k] + (1 if k in (i - 1, j - 1) else 0) for k in range(n)),
                tuple(a[k] + (1 if k == j - 1 else 0) for k in range(n))]
        pts = [project(v) for v in ring]
        xs.extend(x for x, _ in pts)
        ys.extend(y for _, y in pts)
        coords = " ".join(f"{x:.12g},{-y:.12g}" for x, y in pts)
        color = _PALETTE[type_index[f.directions] % len(_PALETTE)]
        polys.append(f'<polygon points="{coords}" fill="{color}" '
                     f'stroke="black" stroke-width="0.02"/>')
    pad = 1.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(-y for y in ys) - pad, max(-y for y in ys) + pad
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{x0:.12g} {y0:.12g} {x1 - x0:.12g} {y1 - y0:.12g}">')
    return head + "\n" + "\n".join(polys) + "\n</svg>\n"


def slope_hash(s: Slope) -> str:
    data = {
        "minpoly": [str(c) for c in s.field.minpoly],
        "n": s.n,
        "d": s.d,
        "generators": [[[str(c) for c in e.coeffs] for e in s.generators.col(j)]
                       for j in range(s.d)],
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def patch_json(p: Patch) -> str:
    doc = {
        "slope_hash": slope_hash(p.slope),
        "n": p.slope.n,
        "d": p.slope.d,
        "radius": str(Fraction(p.radius)),
        "offset": [[str(c) for c in e.coeffs] for e in p.offset],
        "faces": [{"anchor": list(f.anchor), "directions": list(f.directions)}
                  for f in p.faces],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
