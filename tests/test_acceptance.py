"""End-to-end acceptance gate.

One test per acceptance check, each ending in a single printed pass line;
run with -s to see the lines, or read the per-test verdicts from -v output.
All comparisons are exact rational identities, never tolerances.
"""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

from bottsam import (
    Basis,
    DivisorClass,
    Weight,
    bs_character,
    multiplicity_asymptotics,
)
from bottsam.polyhedra import cone_payload

from oracles import weyl_dim_a1

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rays_a2_12.json"


def can(coords):
    return DivisorClass(tuple(coords), Basis.CANONICAL)


def nef_grid(lattice, n, bound):
    for coords in itertools.product(range(bound + 1), repeat=n):
        divisor = can(coords)
        if lattice.is_nef(divisor):
            yield divisor


def test_base_case_global_cone_is_exact(okounkov_a1):
    start = time.perf_counter()
    approx = okounkov_a1.global_cone(2, 3)
    elapsed = time.perf_counter() - start
    assert approx.cone.rays == ((0, 1), (1, 1))
    assert approx.saturated
    assert elapsed < 1.0
    print(f"PASS [1/9] base global cone has rays (0,1),(1,1) "
          f"({elapsed:.3f}s)")


def test_counting_identity_on_all_fixtures(
        lattice_a1, okounkov_a1, lattice_a2_12, okounkov_a2_12,
        lattice_a2_121, okounkov_a2_121, lattice_b2_12, okounkov_b2_12,
        a1, a2, b2):
    start = time.perf_counter()
    fixtures = [
        (lattice_a1, okounkov_a1, a1, [1], 5),
        (lattice_a2_12, okounkov_a2_12, a2, [1, 2], 2),
        (lattice_a2_121, okounkov_a2_121, a2, [1, 2, 1], 2),
        (lattice_b2_12, okounkov_b2_12, b2, [1, 2], 2),
    ]
    pairs = 0
    for lattice, engine, datum, word, bound in fixtures:
        for divisor in nef_grid(lattice, len(word), bound):
            for level in range(1, 7):
                points = engine.valuation_points(divisor, level)
                scaled = tuple(level * c for c in divisor.coords)
                expected = bs_character(datum, word, scaled).dimension()
                assert len(points) == len(set(points)) == expected, \
                    (word, divisor.coords, level)
                pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS [2/9] counting identity on {pairs} (class, level) pairs "
          f"({elapsed:.1f}s)")


def test_volume_identity_at_saturation(okounkov_a1, okounkov_a2_12,
                                       okounkov_b2_12, okounkov_a2_121):
    recorded = [
        (okounkov_a1, (3,), Fraction(3)),
        (okounkov_a2_12, (1, 1), Fraction(3, 2)),
        (okounkov_b2_12, (1, 1), Fraction(3, 2)),
        (okounkov_a2_121, (0, 1, 1), Fraction(1)),
    ]
    for engine, coords, value in recorded:
        report = engine.volume_check(can(coords), 8)
        assert report["hull_volume"] == value, coords
        assert report["target_volume"] == value, coords
        assert report["gap"] == 0
        assert report["stabilized"] and report["certified"], coords
    print("PASS [3/9] hull volume equals the class volume over n! on all "
          "recorded fixtures")


def test_polyhedrality_witness_with_golden_rays(lattice_a2_12, a2):
    from bottsam import OkounkovEngine

    golden = json.loads(GOLDEN_PATH.read_text())
    runs = []
    for _ in range(2):
        engine = OkounkovEngine(lattice_a2_12)
        approx = engine.global_cone(6, 3)
        assert approx.saturated
        payload = cone_payload(approx.cone)
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["rays"] == golden["rays"]
    print("PASS [4/9] saturated global cone matches the golden rays, "
          "byte-identical on rerun")


def test_surface_generator_recipe(okounkov_a2_12, okounkov_b2_12):
    for engine in (okounkov_a2_12, okounkov_b2_12):
        generators, cone = engine.indok_generators_surface()
        saturated = engine.global_cone(6, 3).cone
        assert cone.rays == saturated.rays
    print("PASS [5/9] surface generator recipe spans the saturated "
          "global cone on both length-2 fixtures")


def test_restriction_identity(okounkov_a2_12):
    for coords in ((0, 1), (1, 0), (1, 1), (2, 1), (2, 2)):
        report = okounkov_a2_12.restriction_check(can(coords))
        assert report["contained"] and report["equal"], coords
    print("PASS [6/9] restriction identity holds for nef classes on the "
          "length-2 fixture")


def test_weight_asymptotics(lattice_a2_121):
    report = multiplicity_asymptotics(
        lattice_a2_121, can((0, 1, 1)), (0, 0), 6)
    rows = report["levels"]
    assert [row["dimension"] for row in rows] == [2, 3, 4, 5, 6, 7]
    for row in rows:
        k = row["level"]
        character = bs_character(lattice_a2_121.datum, (1, 2, 1),
                                 (0, k, k))
        assert row["dimension"] == character.multiplicity(Weight((0, 0)))
    assert report["slice_volume"] == 1
    gaps = [abs(row["ratio"] - report["slice_volume"]) for row in rows]
    assert gaps == [Fraction(1, k) for k in range(1, 7)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    print("PASS [7/9] weight-space dimensions counted off the labeled level "
          "sets match the character oracle and converge monotonically to the "
          "slice volume")


def test_both_section_routes_agree(lattice_a2_12, lattice_a2_121,
                                   lattice_b2_12):
    from oracles import dense_rank

    fixtures = [(lattice_a2_12, 2), (lattice_b2_12, 2), (lattice_a2_121, 1)]
    for lattice, bound in fixtures:
        engine = lattice.engine
        for divisor in nef_grid(lattice, lattice.n, bound):
            nef = engine.section_basis_nef(divisor.coords)
            glue = engine.section_basis_glue(can=divisor.coords)
            assert len(nef) == len(glue)
            polys = [sp.poly for sp in nef] + [sp.poly for sp in glue]
            monos = sorted({m for p in polys for m in p.terms})
            index = {m: i for i, m in enumerate(monos)}
            rows = [{index[m]: c for m, c in p.terms.items()} for p in polys]
            joint = dense_rank(rows, len(monos))
            assert joint == len(nef), divisor.coords
    print("PASS [8/9] spanning and gluing routes agree in dimension and "
          "span on all nef fixtures")


def test_equivariance_at_random_specializations(lattice_a2_12,
                                                lattice_a2_121,
                                                lattice_b2_12):
    cases = [
        (lattice_a2_12, (1, 1)),
        (lattice_b2_12, (1, 1)),
        (lattice_a2_121, (0, 1, 1)),
    ]
    total = 0
    for lattice, coords in cases:
        engine = lattice.engine
        basis = engine.section_basis_nef(coords)
        failures = engine.equivariance_failures(basis, coords, seed=1)
        assert failures == 0, coords
        total += len(basis)
    print(f"PASS [9/9] transformation law holds at 20 random rational "
          f"specializations for each of {total} basis sections")
