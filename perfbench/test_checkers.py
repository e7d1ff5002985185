"""Tests of the benchmark itself: the generator, the speed probe and the
independent checkers.

    python3 -m pytest perfbench -q

Each checker must accept slopechar's document and reject the same document
after one corruption: a dropped face, a pattern area changed by one cell, a
flipped status, a Groebner element that does not vanish at the slope.  The
documents come from slopechar's command-line entry point on small inputs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
from slopechar import cli, patterns, specfile  # noqa: E402


def run_cli(tmp_path, op):
    spec = tmp_path / "op.slope"
    out = tmp_path / "op.json"
    spec.write_text(op["spec"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([op["kind"], str(spec), *op["args"], "--json", str(out)]) == 0
    return json.loads(out.read_text())


def fixture_op(kind, name, args=(), **meta):
    return gen._op(kind, name, gen.fixture_text(ROOT, name), args, fixture=name, **meta)


# ---------------------------------------------------------------------------
# speed probe


def test_probe_samples_during_a_long_operation():
    with calib.Probe() as probe:
        end = time.perf_counter() + 3 * calib.INTERVAL_S + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert probe.spent >= sum(probe.samples)
    with calib.Probe() as probe:  # a new entry starts afresh
        pass
    assert probe.samples == [] and probe.spent == 0.0


def test_reference_seconds():
    assert calib.to_reference(3.0, calib.REFERENCE_S) == 3.0
    # on a host twice as slow as the reference, a time counts for less
    assert calib.to_reference(3.0, 2 * calib.REFERENCE_S) < 1.5


# ---------------------------------------------------------------------------
# generator


def test_same_seed_same_operations():
    for workload in gen.WORKLOADS:
        a = gen.make_ops(workload, 7, ROOT)
        b = gen.make_ops(workload, 7, ROOT)
        assert [op["spec"] for op in a] == [op["spec"] for op in b]


def test_every_seed_has_the_same_mix():
    def mix(ops):
        return [(op["kind"], op["meta"]["n"], op["meta"]["d"],
                 len(op["meta"]["minpoly"]) - 1, op["args"][:2]) for op in ops]

    for workload in gen.WORKLOADS:
        assert mix(gen.make_ops(workload, 1, ROOT)) == mix(gen.make_ops(workload, 2, ROOT))


def test_twin_has_permuted_scaled_grassmann_coordinates():
    rng = random.Random(3)
    s = gen.draw_slope(rng, 4, 2, 3)
    t = gen.twin_of(rng, s)
    field = check.Field(s["minpoly"], s["interval"])
    gs = check.grassmann(field, s["gens"], 4, 2)
    gt = check.grassmann(field, t["gens"], 4, 2)
    ratio = abs(field.num_elem(gt[t["normalization"]]) / field.num_elem(gs[s["normalization"]]))
    assert sorted(abs(field.num_elem(v)) * ratio for v in gs.values()) == pytest.approx(
        sorted(abs(field.num_elem(v)) for v in gt.values()), rel=1e-20)


def test_window_basis_matches_slopechar():
    from slopechar.geometry import eprime_basis

    for name in ("typical", "penrose"):
        text = gen.fixture_text(ROOT, name)
        ours = check.Window(gen.parse_spec_text(text)).b
        theirs = eprime_basis(specfile.to_slope(specfile.parse_spec(text)))
        for i in range(theirs.nrows):
            for j in range(theirs.ncols):
                assert abs(ours[i, j] - mpmath.mpf(float(theirs[i, j]))) < 1e-12


# ---------------------------------------------------------------------------
# checkers reject corrupted documents


def test_digitize_check_rejects_a_dropped_face(tmp_path):
    op = fixture_op("digitize", "ammann_beenker", ["--radius", "4", "--seed", "5"], radius=4)
    doc = run_cli(tmp_path, op)
    validate = check.validator(ROOT, "digitize")
    problems, info = check.digitize_problems(op["meta"], doc, validate)
    assert problems == [] and info["near_boundary"] == 0
    bad = copy.deepcopy(doc)
    del bad["faces"][len(bad["faces"]) // 2]
    problems, _ = check.digitize_problems(op["meta"], bad, validate)
    assert any("faces missing" in p for p in problems)


def test_atlas_check_rejects_an_area_changed_by_one_cell(tmp_path):
    op = fixture_op("rpatterns", "ammann_beenker", ["--r", "0"], r=0)
    doc = run_cli(tmp_path, op)
    validate = check.validator(ROOT, "rpatterns")
    problems, info = check.atlas_problems(op["meta"], doc, validate, random.Random(1))
    assert problems == [] and info["classes"] == 6
    # the area of one cell of the first pattern, from slopechar's own atlas
    slope = specfile.to_slope(specfile.parse_spec(op["spec"]))
    atlas = patterns.enumerate_r_patterns(slope, 0)
    cell = patterns._poly_area(atlas.entries[0].cells[0])
    bad = copy.deepcopy(doc)
    area = bad["patterns"][0]["area"]
    area["coeffs"] = [str(Fraction(a) + c) for a, c in zip(area["coeffs"], cell.coeffs)]
    problems, _ = check.atlas_problems(op["meta"], bad, validate, random.Random(1))
    assert any("areas sum" in p for p in problems)


def test_atlas_check_rejects_a_pattern_that_never_occurs(tmp_path):
    op = fixture_op("rpatterns", "ammann_beenker", ["--r", "0"], r=0)
    doc = run_cli(tmp_path, op)
    bad = copy.deepcopy(doc)
    bad["patterns"][0]["edges"] = bad["patterns"][0]["edges"][:1]
    problems, _ = check.atlas_problems(op["meta"], bad, check.validator(ROOT, "rpatterns"),
                                       random.Random(1))
    assert problems


def test_sampled_atlas_check_rejects_a_star_that_never_occurs(tmp_path):
    op = fixture_op("rpatterns", "penrose", ["--r", "0", "--samples", "6"], r=0)
    doc = run_cli(tmp_path, op)
    validate = check.validator(ROOT, "rpatterns")
    assert check.atlas_problems(op["meta"], doc, validate, random.Random(1))[0] == []
    bad = copy.deepcopy(doc)
    # two opposite edges at one vertex: no rhombus tiling has such a vertex
    bad["patterns"][0]["edges"] = [{"vertex": [0, 0, 0, 0, 0], "direction": 2},
                                   {"vertex": [0, 1, 0, 0, 0], "direction": 2}]
    problems, _ = check.atlas_problems(op["meta"], bad, validate, random.Random(1))
    assert any("no window point" in p for p in problems)


@pytest.mark.parametrize("name, flipped", [("typical", "NotCharacterized"),
                                           ("ammann_beenker", "CharacterizedByCoincidences")])
def test_verdict_check_rejects_a_flipped_status(tmp_path, name, flipped):
    op = fixture_op("verdict", name)
    doc = run_cli(tmp_path, op)
    validate = check.validator(ROOT, "verdict")
    assert check.verdict_problems(op["meta"], doc, validate) == []
    bad = dict(doc, status=flipped)
    problems = check.verdict_problems(op["meta"], bad, validate)
    assert any("zero-dimensional" in p for p in problems)
    twin = dict(op, id=name + ".twin")
    ops = [dict(op, meta=dict(op["meta"], group=name)),
           dict(twin, meta=dict(op["meta"], group=name))]
    assert check.twin_problems(ops, {name: doc, name + ".twin": bad})


def test_verdict_check_rejects_a_groebner_element_off_the_slope(tmp_path):
    op = fixture_op("verdict", "typical")
    doc = run_cli(tmp_path, op)
    bad = copy.deepcopy(doc)
    term = bad["groebner_basis"][0]["terms"][-1]
    term["coefficient"] = str(Fraction(term["coefficient"]) + 1)
    problems = check.verdict_problems(op["meta"], bad, check.validator(ROOT, "verdict"))
    assert any("does not vanish" in p for p in problems)


def test_verdict_check_rejects_a_comparison_point_on_no_family(tmp_path):
    op = fixture_op("verdict", "ammann_beenker")
    doc = run_cli(tmp_path, op)
    bad = copy.deepcopy(doc)
    bad["witness"]["comparison_point"]["G13"] = "7/5"
    problems = check.verdict_problems(op["meta"], bad, check.validator(ROOT, "verdict"))
    assert any("comparison point" in p for p in problems)


# ---------------------------------------------------------------------------
# metric names


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import spans

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = set(spans.layer_metrics({"spans": {}, "counts": {}})) | {"trace.overhead_s"}
    assert names == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, (_, unit) in spans.layer_metrics({"spans": {}, "counts": {}}).items():
        assert units[name] == unit
