"""Per-layer tracing of slopechar from outside the library.

`Tracer.install` replaces the public functions of each slopechar module with
wrappers that time every call.  A span's self time is its duration minus the
durations of the traced spans it encloses.  A function imported by name into
other modules is patched in each of them, since it is looked up there: for
example `charcheck` imports `all_equations` and `realize` by name.

Spans are aggregated per operation in memory (calls, total and self time per
span name) and handed back when the operation ends; nothing is written while
an operation runs.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute path) of the traced function
SPANS = {
    "specfile.to_slope": ("specfile", "to_slope"),
    "numfield.sign": ("numfield", "FieldElem.sign"),
    "numfield.inverse": ("numfield", "FieldElem.inverse"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.lll": ("linalg", "lll"),
    "linalg.kernel_int": ("linalg", "kernel_int"),
    "slope.grassmann": ("slope", "grassmann"),
    "slope.is_generic": ("slope", "is_generic"),
    "geometry.eprime_basis": ("geometry", "eprime_basis"),
    "geometry.window_contains": ("geometry", "Window.contains"),
    "geometry.hpolytope_contains": ("geometry", "HPolytope.contains"),
    "geometry.vertices": ("geometry", "HPolytope.vertices"),
    "tiling.digitize": ("tiling", "digitize"),
    "tiling.patch_json": ("tiling", "patch_json"),
    "patterns.enumerate_r_patterns": ("patterns", "enumerate_r_patterns"),
    "patterns.r_pattern_at": ("patterns", "r_pattern_at"),
    "patterns.pattern_region": ("patterns", "pattern_region"),
    "coincidence.enumerate_types": ("coincidence", "enumerate_types"),
    "coincidence.coincidence_lattice": ("coincidence", "coincidence_lattice"),
    "coincidence.equation_of": ("coincidence", "equation_of"),
    "coincidence.all_equations": ("coincidence", "all_equations"),
    "coincidence.realize": ("coincidence", "realize"),
    "coincidence.minimize_r": ("coincidence", "minimize_r"),
    "charcheck.assemble_ideal": ("charcheck", "assemble_ideal"),
    "charcheck.buchberger": ("charcheck", "buchberger"),
    "charcheck.minimal_polynomial_of": ("charcheck", "minimal_polynomial_of"),
    "charcheck.isolate_real_roots": ("charcheck", "isolate_real_roots"),
    "charcheck.verdict": ("charcheck", "verdict"),
    "charcheck.verdict_json": ("charcheck", "verdict_json"),
    "cli.main": ("cli", "main"),
    "cli.emit": ("cli", "_emit"),
    "cli.elem_json": ("cli", "_elem_json"),
}

# counted without timing: too frequent and too short for a timer of their own
COUNTS = {
    "numfield.mul": ("numfield", "FieldElem.__mul__"),
    "tiling.membership_test": ("tiling", "LatticeMembership.status"),
}

# span name -> [(count name, function of the span's result giving the count)]
RESULT_COUNTS = {
    "tiling.digitize": [("tiling.faces", len)],
    "patterns.enumerate_r_patterns": [
        ("patterns.cells", lambda a: sum(len(e.cells) for e in a.entries)),
        ("patterns.patterns", lambda a: len(a.entries))],
    "coincidence.enumerate_types": [("coincidence.types", len)],
    "coincidence.coincidence_lattice": [("coincidence.lattice_vectors", len)],
    "coincidence.all_equations": [("coincidence.equations_kept", len)],
    "charcheck.buchberger": [("charcheck.gb_size", len)],
}


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = {}   # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> int
        self._patches = []

    def take(self):
        """Return and reset the statistics gathered since the last call."""
        out = {"spans": self.spans, "counts": self.counts}
        self.spans, self.counts = {}, {}
        return out

    def _timed(self, name, fn):
        stack = self.stack
        perf = time.perf_counter
        extra = RESULT_COUNTS.get(name, [])
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in enclosed traced spans
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = tracer.spans.get(name)
                if st is None:
                    st = tracer.spans[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
            for cname, f in extra:
                tracer.counts[cname] = tracer.counts.get(cname, 0) + f(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self
        if name == "tiling.membership_test":
            # only lookups that miss the membership cache run an exact test
            def wrapper(member, x):
                if x not in member.cache:
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return fn(member, x)
        else:
            def wrapper(*args):
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return fn(*args)
        return wrapper

    def install(self):
        """Patch every slopechar module; `uninstall` restores the originals."""
        modules = {name.rsplit(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("slopechar.") and mod is not None}
        for table, make in ((SPANS, self._timed), (COUNTS, self._counted)):
            for name, (modname, path) in table.items():
                owner = modules[modname]
                parts = path.split(".")
                for p in parts[:-1]:
                    owner = getattr(owner, p)
                original = getattr(owner, parts[-1])
                wrapper = make(name, original)
                if isinstance(owner, type):
                    # aliases such as __rmul__ = __mul__ share the function
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)
                else:
                    for mod in modules.values():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def _self(stats, *names):
    return sum(stats["spans"].get(n, (0, 0.0, 0.0))[2] for n in names)


def _calls(stats, name):
    return stats["spans"].get(name, (0, 0.0, 0.0))[0]


def _count(stats, name):
    return stats["counts"].get(name, 0)


def _ratio(a, b):
    return a / b if b else 0.0


def merge(parts):
    """Sum per-operation statistics into one."""
    out = {"spans": {}, "counts": {}}
    for p in parts:
        for name, (c, t, s) in p["spans"].items():
            st = out["spans"].setdefault(name, [0, 0.0, 0.0])
            st[0] += c
            st[1] += t
            st[2] += s
        for name, c in p["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + c
    return out


def layer_metrics(stats):
    """The per-layer metrics (name -> (value, unit)) of merged statistics."""
    s = stats
    lattice_vectors = _count(s, "coincidence.lattice_vectors")
    cells = _count(s, "patterns.cells")
    tests = _count(s, "tiling.membership_test")
    return {
        "specfile.to_slope_s": (_self(s, "specfile.to_slope"), "s"),
        "numfield.sign_calls": (_calls(s, "numfield.sign"), "count"),
        "numfield.sign_s": (_self(s, "numfield.sign"), "s"),
        "numfield.mul_calls": (_count(s, "numfield.mul"), "count"),
        "numfield.inverse_calls": (_calls(s, "numfield.inverse"), "count"),
        "numfield.inverse_s": (_self(s, "numfield.inverse"), "s"),
        "linalg.rref_calls": (_calls(s, "linalg.rref"), "count"),
        "linalg.rref_s": (_self(s, "linalg.rref"), "s"),
        "linalg.lll_s": (_self(s, "linalg.lll"), "s"),
        "linalg.kernel_int_s": (_self(s, "linalg.kernel_int"), "s"),
        "slope.grassmann_s": (_self(s, "slope.grassmann"), "s"),
        "slope.is_generic_s": (_self(s, "slope.is_generic"), "s"),
        "geometry.eprime_basis_s": (_self(s, "geometry.eprime_basis"), "s"),
        "geometry.contains_calls": (_calls(s, "geometry.window_contains")
                                    + _calls(s, "geometry.hpolytope_contains"), "count"),
        "geometry.contains_s": (_self(s, "geometry.window_contains",
                                      "geometry.hpolytope_contains"), "s"),
        "geometry.vertices_s": (_self(s, "geometry.vertices"), "s"),
        "tiling.digitize_s": (_self(s, "tiling.digitize"), "s"),
        "tiling.membership_tests": (tests, "count"),
        "tiling.faces_per_membership_test": (
            _ratio(_count(s, "tiling.faces"), tests), "ratio"),
        "patterns.cells": (cells, "count"),
        "patterns.r_pattern_at_calls": (_calls(s, "patterns.r_pattern_at"), "count"),
        "patterns.r_pattern_at_s": (_self(s, "patterns.r_pattern_at"), "s"),
        "patterns.pattern_region_s": (_self(s, "patterns.pattern_region"), "s"),
        "patterns.patterns_per_cell": (
            _ratio(_count(s, "patterns.patterns"), cells), "ratio"),
        "coincidence.types": (_count(s, "coincidence.types"), "count"),
        "coincidence.lattice_vectors": (lattice_vectors, "count"),
        "coincidence.lattice_s": (_self(s, "coincidence.coincidence_lattice"), "s"),
        "coincidence.equation_of_s": (_self(s, "coincidence.equation_of"), "s"),
        "coincidence.equations_kept_per_vector": (
            _ratio(_count(s, "coincidence.equations_kept"), lattice_vectors), "ratio"),
        "coincidence.realize_s": (_self(s, "coincidence.realize"), "s"),
        "coincidence.minimize_r_s": (_self(s, "coincidence.minimize_r"), "s"),
        "charcheck.assemble_ideal_s": (_self(s, "charcheck.assemble_ideal"), "s"),
        "charcheck.buchberger_s": (_self(s, "charcheck.buchberger"), "s"),
        "charcheck.gb_size": (_count(s, "charcheck.gb_size"), "count"),
        "charcheck.consequences_s": (_self(s, "charcheck.minimal_polynomial_of",
                                           "charcheck.isolate_real_roots"), "s"),
        "cli.json_s": (_self(s, "cli.emit", "cli.elem_json", "charcheck.verdict_json",
                             "tiling.patch_json"), "s"),
    }
