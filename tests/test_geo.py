"""Geometry tests: sphere sampling, footprints, interference, detection."""

import hashlib
import itertools
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from leobft import geo
from leobft.geo import (
    EARTH_AREA_KM2,
    R_EARTH_KM,
    BeamGeometry,
    Constellation,
    build_constellation,
    count_interference,
    deploy_poisson,
    detection_probability_theory,
    detection_sweep,
    simulate_detection,
    sphere_points,
)


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def rotate_about_y(point, angle_rad):
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    x, y, z = point
    return np.array([c * x + s * z, y, -s * x + c * z])


class TestBeamGeometry:
    def test_default_footprint_radius(self):
        beam = BeamGeometry()
        expected = 550.0 * math.tan(math.radians(1.75))
        assert beam.footprint_radius_km == pytest.approx(expected)
        assert beam.footprint_radius_km == pytest.approx(16.8, abs=0.05)

    def test_radius_scales_with_altitude(self):
        low = BeamGeometry(altitude_km=400.0)
        high = BeamGeometry(altitude_km=1200.0)
        assert high.footprint_radius_km == pytest.approx(3 * low.footprint_radius_km)


class TestSphereSampling:
    def test_points_are_unit_vectors(self):
        pts = sphere_points(500, np.random.default_rng(1))
        norms = np.linalg.norm(pts, axis=1)
        assert np.allclose(norms, 1.0)

    def test_z_coordinate_is_uniform(self):
        # uniform z is the defining property of area-uniform sphere sampling
        pts = sphere_points(40000, np.random.default_rng(2))
        z = pts[:, 2]
        sigma = 1.0 / math.sqrt(3 * len(z))
        assert abs(z.mean()) < 4 * sigma
        # thirds of [-1, 1] should hold about a third of the mass each
        for lo in (-1.0, -1.0 / 3.0, 1.0 / 3.0):
            frac = np.mean((z >= lo) & (z < lo + 2.0 / 3.0))
            assert abs(frac - 1.0 / 3.0) < 0.02

    def test_octant_symmetry(self):
        pts = sphere_points(40000, np.random.default_rng(3))
        frac = np.mean((pts[:, 0] > 0) & (pts[:, 1] > 0) & (pts[:, 2] > 0))
        assert abs(frac - 0.125) < 0.01

    def test_poisson_count_matches_intensity(self):
        lam = 17e-6
        expected = lam * EARTH_AREA_KM2
        counts = [
            len(deploy_poisson(lam, np.random.default_rng(seed)))
            for seed in range(30)
        ]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(expected / len(counts))
        assert abs(mean - expected) < 4 * sigma

    # sha256 of sphere_points(count, default_rng(seed)).tobytes(), recorded
    # before the draw was rewritten to work in place
    @pytest.mark.parametrize("seed, count, digest", [
        (0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, 1, "413dff32f831e15ee9cebdc9b0ea81cb12aedf49d2cf7e53cdb89d8112bff1f3"),
        (2, 7, "d852eea075e836db244ad581db91d0050fd00baa2e86e8b6fd73857e213d9b8e"),
        (3, 1000, "8f93b33f09a2ab6eef18378921932f27b9a3dcc02a46ae95d53c7a864e22b639"),
        (4, 100003, "a26334cc800feba7e731f26d0816b9de4f598b0ac64dc2d9da148a168c2f2d8c"),
        # above geo._SPLIT_ROWS and not a multiple of geo._CELL_CHUNK, recorded
        # before the draw was split over the usable CPUs
        (5, 1000003, "bd9ac7277fd6ad0feae831f49f70a8e23ecdd16f9be7d53f2db9c4c7bb771b18"),
    ])
    def test_output_bits_pinned(self, seed, count, digest):
        pts = sphere_points(count, np.random.default_rng(seed))
        assert pts.shape == (count, 3) and pts.dtype == np.float64
        assert pts.flags["C_CONTIGUOUS"]
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    def test_zero_density_gives_empty_field(self):
        assert len(deploy_poisson(0.0, np.random.default_rng(4))) == 0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            deploy_poisson(-1.0, np.random.default_rng(5))


class TestInterferenceCounting:
    def _manual(self, positions_a, positions_b, bands_a, bands_b, beam):
        # every pair, 256 rows of a at a time against all of b
        count = 0
        threshold = 2.0 * beam.footprint_radius_km / R_EARTH_KM
        for lo in range(0, len(positions_a), 256):
            dots = positions_a[lo:lo + 256] @ positions_b.T
            angle = np.arccos(np.clip(dots, -1.0, 1.0))
            same = bands_a[lo:lo + 256, None] == bands_b[None, :]
            count += int(np.count_nonzero((angle < threshold) & same))
        return count

    def _make(self, sats, bands, beam=None):
        beam = beam or BeamGeometry()
        return Constellation(
            beam,
            {op: np.array(pts, dtype=float) for op, pts in sats.items()},
            {op: np.array(b, dtype=np.int64) for op, b in bands.items()},
        )

    def test_overlapping_pair_counts_once(self):
        beam = BeamGeometry()
        base = unit([1.0, 0.0, 0.0])
        near = rotate_about_y(base, 1.5 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make({1: [base], 2: [near]}, {1: [0], 2: [0]}, beam)
        assert count_interference(c) == 1

    def test_separated_pair_does_not_count(self):
        beam = BeamGeometry()
        base = unit([1.0, 0.0, 0.0])
        far = rotate_about_y(base, 2.5 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make({1: [base], 2: [far]}, {1: [0], 2: [0]}, beam)
        assert count_interference(c) == 0

    def test_boundary_is_exclusive(self):
        beam = BeamGeometry()
        base = unit([1.0, 0.0, 0.0])
        at_limit = rotate_about_y(base, 2.0 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make({1: [base], 2: [at_limit]}, {1: [0], 2: [0]}, beam)
        assert count_interference(c) == 0

    def test_just_inside_boundary_counts(self):
        beam = BeamGeometry()
        base = unit([1.0, 0.0, 0.0])
        inside = rotate_about_y(base, 0.999 * 2.0 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make({1: [base], 2: [inside]}, {1: [0], 2: [0]}, beam)
        assert count_interference(c) == 1

    def test_same_operator_overlaps_ignored(self):
        beam = BeamGeometry()
        base = unit([1.0, 0.0, 0.0])
        near = rotate_about_y(base, 0.5 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make({1: [base, near], 2: []}, {1: [0, 0], 2: []}, beam)
        assert count_interference(c) == 0

    def test_different_subbands_do_not_interfere(self):
        beam = BeamGeometry()
        base = unit([1.0, 0.0, 0.0])
        near = rotate_about_y(base, 1.0 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make({1: [base], 2: [near]}, {1: [0], 2: [1]}, beam)
        assert count_interference(c) == 0

    def test_three_operators_count_all_cross_pairs(self):
        beam = BeamGeometry()
        base = unit([0.0, 0.0, 1.0])
        near = rotate_about_y(base, 0.8 * beam.footprint_radius_km / R_EARTH_KM)
        c = self._make(
            {1: [base], 2: [base], 3: [near]},
            {1: [0], 2: [0], 3: [0]},
            beam,
        )
        # unordered cross-operator pairs: (1,2), (1,3), (2,3)
        assert count_interference(c) == 3

    def test_chunked_count_matches_brute_force(self):
        for half_angle, sizes, seed in [
            (20.0, (120, 150), 6),  # big caps, one block
            (60.0, (7500, 1, 7000), 7),  # 1.17M candidates for operator 1: two blocks
            (80.0, (4000, 3000, 1), 8),  # 2.65M candidates for operator 1: three blocks
        ]:
            rng = np.random.default_rng(seed)
            beam = BeamGeometry(altitude_km=550.0, half_angle_deg=half_angle)
            pts = [sphere_points(n, rng) for n in sizes]
            bands = [rng.integers(0, 2, n) for n in sizes]
            c = self._make(dict(enumerate(pts, 1)), dict(enumerate(bands, 1)), beam)
            manual = sum(self._manual(pts[i], pts[j], bands[i], bands[j], beam)
                         for i, j in itertools.combinations(range(len(sizes)), 2))
            assert count_interference(c) == manual
            # an operator with no satellites adds no pairs and no errors, first
            # as an array before the others, then as a list between two of them
            c.satellites[0], c.subbands[0] = np.array([]), np.array([], dtype=np.int64)
            assert count_interference(c) == manual
            c = self._make({1: pts[0], 2: [], 3: pts[1]}, {1: bands[0], 2: [], 3: bands[1]},
                           beam)
            assert count_interference(c) == self._manual(pts[0], pts[1], bands[0],
                                                         bands[1], beam)

    def test_join_blocks_stay_within_budget(self, monkeypatch):
        # 4,000 and 3,000 satellites under 80-degree beams expect 2.65M
        # cross-operator candidate pairs; the join tests them a block of
        # at most _PAIR_BUDGET at a time, in memory bounded by the block
        blocks = record_blocks(monkeypatch)
        rng = np.random.default_rng(8)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=80.0)
        c = self._make({1: sphere_points(4000, rng), 2: sphere_points(3000, rng)},
                       {1: np.zeros(4000), 2: np.zeros(3000)}, beam)
        tracemalloc.start()
        try:
            count = count_interference(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == all_pairs_count(c)
        assert len(blocks) > 1
        assert sum(blocks) > 2 * geo._PAIR_BUDGET
        assert max(blocks) <= geo._PAIR_BUDGET
        # listing every candidate at once would take about 20 B each
        assert peak <= 40 * geo._PAIR_BUDGET

    def test_interference_grows_with_density(self):
        rows = geo.interference_sweep([5.0, 15.0], n_operators=4, n_subbands=1,
                                      trials=2, seed=0)
        assert rows[0][1] < rows[1][1]

    def test_expected_count_scale(self):
        # E[pairs per operator pair] = lambda^2 * A * pi (2r)^2; six pairs at
        # four operators. Monte Carlo with a couple of trials stays within a
        # loose band around the analytic value.
        lam = 17e-6
        beam = BeamGeometry()
        per_pair = lam * lam * EARTH_AREA_KM2 * math.pi * (2 * beam.footprint_radius_km) ** 2
        expected_total = 6 * per_pair
        rows = geo.interference_sweep([17.0], n_operators=4, n_subbands=1,
                                      trials=3, seed=1)
        assert 0.5 * expected_total < rows[0][1] < 1.5 * expected_total


def all_pairs_count(constellation):
    """count_interference by testing every cross-operator pair: the dot
    product (x x' + z z', then + y y') above cos(2r/R), on one sub-band."""
    threshold = math.cos(2.0 * constellation.beam.footprint_radius_km / R_EARTH_KM)
    ops = [op for op in sorted(constellation.satellites) if len(constellation.satellites[op])]
    total = 0
    for a, b in itertools.combinations(ops, 2):
        pa, pb = (np.asarray(constellation.satellites[op], dtype=float) for op in (a, b))
        ba, bb = (np.asarray(constellation.subbands[op]) for op in (a, b))
        for lo in range(0, len(pa), 256):
            x, y = pa[lo:lo + 256, None, :], pb[None, :, :]
            dot = (x[..., 0] * y[..., 0] + x[..., 2] * y[..., 2]) + x[..., 1] * y[..., 1]
            same = ba[lo:lo + 256, None] == bb[None, :]
            total += int(np.count_nonzero((dot > threshold) & same))
    return total


def record_blocks(monkeypatch):
    """A list to which count_interference's join adds the pairs each block lists."""
    listed = []
    join_blocks = geo._join_blocks

    def recording(groups, starts):
        for i, j, own in join_blocks(groups, starts):
            listed.append(int(np.count_nonzero(i[:, None] < j[None])) if own
                          else i.shape[0] * j.size)  # rows * columns * meetings
            yield i, j, own

    monkeypatch.setattr(geo, "_join_blocks", recording)
    return listed


def random_constellation(sizes, half_angle_deg, n_subbands, seed):
    rng = np.random.default_rng(seed)
    beam = BeamGeometry(altitude_km=550.0, half_angle_deg=half_angle_deg)
    return Constellation(beam,
                         {op: sphere_points(n, rng) for op, n in enumerate(sizes, 1)},
                         {op: rng.integers(0, n_subbands, n) for op, n in enumerate(sizes, 1)})


def join_radius(beam):
    """The widened chord radius that count_interference searches with."""
    angle = 2.0 * beam.footprint_radius_km / R_EARTH_KM
    return 2.0 * math.sin(min(angle, math.pi) / 2.0) * geo._WIDEN


class TestInterferenceJoin:
    """count_interference's cell join gives the all-pairs count."""

    @pytest.mark.parametrize("axes", [(0, 1), (2, 0), (1, 2)])
    def test_threshold_and_one_ulp_either_side(self, axes):
        # one satellite on an axis and one at dot product exactly cos(2r/R),
        # or one ulp below or above it: only the last overlaps
        beam = BeamGeometry()
        threshold = math.cos(2.0 * beam.footprint_radius_km / R_EARTH_KM)
        found = []
        for dot in (np.nextafter(threshold, -1.0), threshold, np.nextafter(threshold, 2.0)):
            a, b = np.zeros(3), np.zeros(3)
            a[axes[0]] = 1.0
            b[axes[0]], b[axes[1]] = dot, math.sqrt(1.0 - dot * dot)
            c = Constellation(beam, {1: a[None, :], 2: b[None, :]},
                              {1: np.zeros(1, np.int64), 2: np.zeros(1, np.int64)})
            assert count_interference(c) == all_pairs_count(c)
            found.append(count_interference(c))
        assert found == [0, 0, 1]

    def test_every_cell_offset_matches(self):
        # cells of edge about 0.2, and 1,500 satellites per operator: pairs
        # that count lie in one cell and across each of the 26 neighbouring
        # cells, from either operator's satellite
        c = random_constellation((1500, 1500), 49.0, 1, 33)
        pts = list(c.satellites.values())
        edge = geo._cell_edge(np.vstack(pts), join_radius(c.beam))
        cells = [np.floor(p / edge).astype(np.int64) for p in pts]
        threshold = math.cos(2.0 * c.beam.footprint_radius_km / R_EARTH_KM)
        i, j = np.nonzero(pts[0] @ pts[1].T > threshold)
        offsets = {tuple(d) for d in cells[1][j] - cells[0][i]}
        assert offsets == {tuple(d) for d in geo._NEIGHBOURS}
        assert count_interference(c) == all_pairs_count(c) > 0

    def test_duplicates_in_two_operators(self):
        # operator 1 holds 50 of its points twice, operator 2 holds 100 of
        # operator 1's points: each copy overlaps, but not within an operator
        rng = np.random.default_rng(34)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=20.0)
        pts = sphere_points(300, rng)
        sats = {1: np.vstack([pts, pts[:50]]), 2: np.vstack([pts[:100], sphere_points(200, rng)])}
        bands = {op: np.zeros(len(p), np.int64) for op, p in sats.items()}
        c = Constellation(beam, sats, bands)
        assert count_interference(c) == all_pairs_count(c) >= 150
        assert count_interference(Constellation(beam, {1: sats[1]}, {1: bands[1]})) == 0

    @pytest.mark.parametrize("empty", [np.empty((0, 3)), np.array([]), []])
    def test_empty_operators(self, empty):
        c = random_constellation((400, 300), 20.0, 2, 35)
        band = [] if isinstance(empty, list) else np.array([], dtype=np.int64)
        expected = all_pairs_count(c)
        for op in (0, 2, 5):  # before, between and after the others
            sats, bands = dict(c.satellites), dict(c.subbands)
            if op == 2:
                sats = {1: sats[1], 2: empty, 3: sats[2]}
                bands = {1: bands[1], 2: band, 3: bands[2]}
            else:
                sats[op], bands[op] = empty, band
            assert count_interference(Constellation(c.beam, sats, bands)) == expected > 0
        lone = Constellation(c.beam, {1: c.satellites[1], 2: empty}, {1: c.subbands[1], 2: band})
        assert count_interference(lone) == 0
        assert count_interference(Constellation(c.beam, {1: empty}, {1: band})) == 0
        assert count_interference(Constellation(c.beam, {}, {})) == 0

    @pytest.mark.parametrize("n_subbands", [1, 10])
    def test_subbands(self, n_subbands):
        c = random_constellation((2000, 1500, 1800), 25.0, n_subbands, 36)
        assert count_interference(c) == all_pairs_count(c) > 0

    def test_subbands_sharing_group_keys(self, monkeypatch):
        # with a zero multiplier every sub-band shares its cell's group key,
        # so the sub-band test alone keeps the pairs apart
        blocks = record_blocks(monkeypatch)
        c = random_constellation((2000, 1500, 1800), 25.0, 10, 36)
        count_interference(c)
        separate = sum(blocks)
        monkeypatch.setattr(geo, "_FIBONACCI", np.uint64(0))
        blocks.clear()
        assert count_interference(c) == all_pairs_count(c) > 0
        assert sum(blocks) > 5 * separate

    def test_footprints_beyond_half_the_sphere(self, monkeypatch):
        # 2r/R >= pi: every pair on one sub-band is a candidate, and the
        # test alone decides
        blocks = record_blocks(monkeypatch)
        c = random_constellation((300, 200, 250), 89.0, 2, 37)
        assert 2.0 * c.beam.footprint_radius_km / R_EARTH_KM >= math.pi
        assert 0 < count_interference(c) == all_pairs_count(c) < 300 * 200 + 300 * 250 + 200 * 250
        per_band = np.bincount(np.concatenate(list(c.subbands.values())))
        assert sum(blocks) == sum(n * (n - 1) // 2 for n in per_band.tolist())

    def test_non_finite_satellites_raise(self):
        for bad in (np.nan, np.inf, -np.inf):
            for sizes, op in [((10, 10), 1), ((10, 10), 2), ((10,), 1)]:
                c = random_constellation(sizes, 1.75, 1, 38)
                c.satellites[op][3, 1] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # no RuntimeWarning on the way
                    with pytest.raises(ValueError,
                                       match="^satellite coordinates must be finite$"):
                        count_interference(c)


@st.composite
def interference_inputs(draw):
    """Small constellations of unit vectors: random points, points on the
    axes, copies of a shared pool and points about the footprint chord from
    a pool point; beams from tiny to beyond half the sphere."""
    beam = BeamGeometry(altitude_km=550.0, half_angle_deg=draw(st.floats(0.05, 89.9)))
    chord = join_radius(beam)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = sphere_points(draw(st.integers(1, 6)), rng)
    n_subbands = draw(st.integers(1, 3))
    sats, bands = {}, {}
    for op in range(1, draw(st.integers(1, 4)) + 1):
        rows = []
        for _ in range(draw(st.integers(0, 20))):
            kind = draw(st.sampled_from(["random", "axis", "copy", "near"]))
            if kind == "random":
                rows.append(sphere_points(1, rng)[0])
            elif kind == "axis":
                row = np.zeros(3)
                row[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
                rows.append(row)
            else:
                row = pool[draw(st.integers(0, len(pool) - 1))].copy()
                if kind == "near":
                    row += draw(st.floats(0.5, 1.5)) * chord * sphere_points(1, rng)[0]
                    row /= np.linalg.norm(row)
                rows.append(row)
        sats[op] = np.array(rows, dtype=float).reshape(-1, 3)
        bands[op] = rng.integers(0, n_subbands, len(rows))
    return Constellation(beam, sats, bands)


class TestInterferenceProperties:
    @given(interference_inputs())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_all_pairs_count(self, c):
        assert count_interference(c) == all_pairs_count(c)


class TestDetection:
    def test_theory_formula(self):
        beam = BeamGeometry()
        area = math.pi * beam.footprint_radius_km**2
        lam = 0.009
        expected = (1.0 - math.exp(-lam * area)) ** 3
        assert detection_probability_theory([lam] * 3, beam) == pytest.approx(expected)
        assert detection_probability_theory([lam] * 3, beam) > 0.99

    def test_theory_monotone_in_density(self):
        assert (detection_probability_theory([0.001] * 3)
                < detection_probability_theory([0.005] * 3))

    def test_theory_rejects_negative_density(self):
        with pytest.raises(ValueError):
            detection_probability_theory([-0.1])

    def test_sensor_on_top_detects(self):
        incident = np.array([unit([1.0, 0.0, 0.0])])
        fields = {1: incident.copy(), 2: incident.copy(), 3: incident.copy()}
        sample = simulate_detection(fields, incident)
        assert sample.rate == 1.0

    def test_detection_needs_every_operator(self):
        beam = BeamGeometry()
        incident = np.array([unit([1.0, 0.0, 0.0])])
        inside = rotate_about_y(incident[0], 0.5 * beam.footprint_radius_km / R_EARTH_KM)
        outside = rotate_about_y(incident[0], 3.0 * beam.footprint_radius_km / R_EARTH_KM)
        fields = {1: np.array([inside]), 2: np.array([outside])}
        sample = simulate_detection(fields, incident, beam)
        assert sample.rate == 0.0
        fields[2] = np.array([inside])
        assert simulate_detection(fields, incident, beam).rate == 1.0

    def test_empty_field_blocks_everything(self):
        incidents = np.array([unit([1.0, 0.0, 0.0]), unit([0.0, 1.0, 0.0])])
        fields = {1: incidents.copy(), 2: np.empty((0, 3))}
        sample = simulate_detection(fields, incidents)
        assert sample.rate == 0.0

    def test_footprint_boundary_in_great_circle_metric(self):
        beam = BeamGeometry()
        incident = np.array([unit([1.0, 0.0, 0.0])])
        just_in = rotate_about_y(incident[0], 0.999 * beam.footprint_radius_km / R_EARTH_KM)
        just_out = rotate_about_y(incident[0], 1.001 * beam.footprint_radius_km / R_EARTH_KM)
        assert simulate_detection({1: np.array([just_in])}, incident, beam).rate == 1.0
        assert simulate_detection({1: np.array([just_out])}, incident, beam).rate == 0.0

    def test_sweep_shape_and_agreement(self):
        rows = detection_sweep([50.0], n_honest=3, trials=4000, seed=9)
        assert len(rows) == 1
        density, empirical, theory = rows[0]
        assert density == 50.0
        assert theory == pytest.approx(
            detection_probability_theory([50.0 / 1e4] * 3))
        assert abs(empirical - theory) < 0.05

    def test_sweep_deterministic(self):
        r1 = detection_sweep([30.0], n_honest=3, trials=1000, seed=2)
        r2 = detection_sweep([30.0], n_honest=3, trials=1000, seed=2)
        assert r1 == r2

    def test_sensor_shared_by_close_incidents_detects_both(self):
        # The sensor sits between two incidents less than 2r apart, inside both
        # footprints but nearer to the first: it must count for both.
        beam = BeamGeometry()
        step = beam.footprint_radius_km / R_EARTH_KM
        first = unit([1.0, 0.0, 0.0])
        incidents = np.array([first, rotate_about_y(first, 1.5 * step)])
        sensor = rotate_about_y(first, 0.7 * step)
        sample = simulate_detection({1: np.array([sensor])}, incidents, beam)
        assert sample.detected.tolist() == [True, True]

    def test_detection_matches_brute_force(self):
        rng = np.random.default_rng(14)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=20.0)  # big caps
        fields = {op: sphere_points(2000, rng) for op in (1, 2)}
        incidents = sphere_points(3000, rng)
        cos_radius = math.cos(beam.footprint_radius_km / R_EARTH_KM)
        expected = np.ones(len(incidents), dtype=bool)
        for field in fields.values():
            expected &= (incidents @ field.T >= cos_radius).any(axis=1)
        sample = simulate_detection(fields, incidents, beam)
        assert 0 < np.count_nonzero(expected) < len(incidents)
        assert np.array_equal(sample.detected, expected)

    def test_survivors_beyond_the_chord_count_for_nothing(self):
        # A ring of sensors at 1.05-1.5 times the footprint around each
        # incident mostly survives the cell pass; one more sensor sits at
        # half the footprint of incident 7, the only one detected.
        beam = BeamGeometry()
        angle = beam.footprint_radius_km / R_EARTH_KM
        rng = np.random.default_rng(25)
        incidents = sphere_points(40, rng)

        def around(centres, factors):
            tangent = np.cross(centres, sphere_points(len(centres), rng))
            tangent /= np.linalg.norm(tangent, axis=1)[:, None]
            turn = factors[:, None] * angle
            return np.cos(turn) * centres + np.sin(turn) * tangent

        centres = np.repeat(incidents, 30, axis=0)
        ring = around(centres, rng.uniform(1.05, 1.5, len(centres)))
        field = np.vstack([ring, around(incidents[7:8], np.array([0.5]))])
        assert cell_pass(ring, incidents, search_radius(beam)).mean() > 0.5
        expected = (incidents @ field.T >= math.cos(angle)).any(axis=1)
        assert np.flatnonzero(expected).tolist() == [7]
        sample = simulate_detection({1: field}, incidents, beam)
        assert np.array_equal(sample.detected, expected)

    def test_no_incidents_gives_zero_rate(self):
        fields = {1: sphere_points(100, np.random.default_rng(15))}
        sample = simulate_detection(fields, np.empty((0, 3)))
        assert sample.rate == 0.0
        assert len(sample.detected) == 0


def search_radius(beam):
    """The widened chord radius that simulate_detection searches with."""
    return 2.0 * math.sin(beam.footprint_radius_km / R_EARTH_KM / 2.0) * geo._WIDEN


def detection_without_cell_pass(fields, incidents, beam):
    """simulate_detection's `detected` without the cell pass: the
    nearest-incident query over every sensor, then the same exact ball count."""
    chord = 2.0 * math.sin(beam.footprint_radius_km / R_EARTH_KM / 2.0)
    incident_tree = cKDTree(incidents)
    detected = np.ones(len(incidents), dtype=bool)
    for op in sorted(fields):
        field = fields[op]
        if len(field) == 0:
            detected[:] = False
            break
        nearest, _ = incident_tree.query(field, k=1, distance_upper_bound=chord * geo._WIDEN)
        tree = cKDTree(field[np.isfinite(nearest)])
        detected &= tree.query_ball_point(incidents, chord, return_length=True) > 0
    return detected


def cell_index(field, incidents, radius):
    """The incident index and the table slot of each sensor's grid cell."""
    edge = geo._cell_edge(incidents, radius)
    with np.errstate(invalid="ignore"):  # cells beyond int64 take arbitrary slots
        cells = np.floor(field / edge).astype(np.int64)
    keys = geo._cell_keys(cells, np.empty(len(cells), np.int64),
                          np.empty(len(cells), np.int64))
    return geo._index_cells(incidents, edge), geo._slots(keys)


def cell_pass(field, incidents, radius):
    """Mask of the sensors whose grid cell's slot the incident index marks."""
    index, slots = cell_index(field, incidents, radius)
    return index.marked[slots]


def query_keeps(field, incidents, radius):
    nearest, _ = cKDTree(incidents).query(field, k=1, distance_upper_bound=radius)
    return np.isfinite(nearest)


@st.composite
def detection_inputs(draw):
    """Small sensor fields and incident sets in 3-D (not necessarily unit vectors).

    Coordinates are arbitrary floats in [-1, 1], exactly -1, 0 or 1 (poles and
    axes), or exact multiples of the cell edge used for incidents with a unit
    coordinate. Sensors may repeat a point or sit within about the search
    radius of one; fields and the incident set may be empty.
    """
    beam = BeamGeometry(altitude_km=550.0,
                        half_angle_deg=draw(st.floats(0.1, 50.0)))
    radius = search_radius(beam)
    edge = geo._cell_edge(np.array([[0.0, 0.0, 1.0]]), radius)
    steps = int(1.0 / edge) + 1
    coord = (st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0])
             | st.integers(-steps, steps).map(lambda k: k * edge))
    point = st.tuples(coord, coord, coord).map(np.array)
    pool = draw(st.lists(point, max_size=8))

    def one_point():
        if pool and draw(st.booleans()):
            base = draw(st.sampled_from(pool))
            if draw(st.booleans()):  # a near neighbour of a pool point
                shift = st.floats(-1.2 * radius, 1.2 * radius)
                return base + np.array([draw(shift) for _ in range(3)])
            return base.copy()  # a duplicate
        return draw(point)

    def cloud(max_size):
        rows = [one_point() for _ in range(draw(st.integers(0, max_size)))]
        return np.array(rows, dtype=float).reshape(-1, 3)

    incidents = cloud(12)
    fields = {op: cloud(16) for op in range(1, draw(st.integers(1, 3)) + 1)}
    return beam, fields, incidents


def unit_rows(points):
    """Rows scaled to unit length; a zero row becomes the north pole."""
    norms = np.linalg.norm(points, axis=1)
    out = points / np.where(norms > 0, norms, 1.0)[:, None]
    out[norms == 0] = [0.0, 0.0, 1.0]
    return out


class TestDetectionProperties:
    @given(detection_inputs())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_filters_without_the_cell_pass(self, inputs):
        beam, fields, incidents = inputs
        sample = simulate_detection(fields, incidents, beam)
        assert np.array_equal(sample.detected,
                              detection_without_cell_pass(fields, incidents, beam))
        radius = search_radius(beam)
        for field in fields.values():
            if len(field) and len(incidents):
                kept = query_keeps(field, incidents, radius)
                assert not (kept & ~cell_pass(field, incidents, radius)).any()

    @given(detection_inputs())
    @settings(max_examples=100, deadline=None)
    def test_unit_vectors_match_brute_force(self, inputs):
        beam, fields, incidents = inputs
        fields = {op: unit_rows(field) for op, field in fields.items()}
        incidents = unit_rows(incidents)
        cos_radius = math.cos(beam.footprint_radius_km / R_EARTH_KM)
        expected = np.ones(len(incidents), dtype=bool)
        # the dot-product and chord tests differ only by rounding at the
        # footprint edge; incidents with a sensor that close are not compared
        on_edge = np.zeros(len(incidents), dtype=bool)
        for field in fields.values():
            dots = incidents @ field.T
            expected &= (dots >= cos_radius).any(axis=1)
            on_edge |= (np.abs(dots - cos_radius) < 1e-12).any(axis=1)
        sample = simulate_detection(fields, incidents, beam)
        assert np.array_equal(sample.detected[~on_edge], expected[~on_edge])


class TestCellPass:
    def test_never_drops_a_sensor_the_query_keeps(self):
        # incidents at random, on the poles and axes, and on cell corners;
        # sensors at (just inside) the search radius from each incident along
        # the 26 grid directions and 20 random ones, near the origin and
        # a million units away from it
        beam = BeamGeometry()
        radius = search_radius(beam)
        rng = np.random.default_rng(16)
        grid_dirs = np.array([d for d in geo._NEIGHBOURS if d.any()], dtype=float)
        dirs = np.vstack([grid_dirs, sphere_points(20, rng)])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for offset in (0.0, 1e6):
            incidents = np.vstack([sphere_points(200, rng), np.eye(3), -np.eye(3)]) + offset
            edge = geo._cell_edge(incidents, radius)
            incidents = np.vstack([incidents, np.floor(incidents / edge) * edge])
            for shrink in (1.0, 1.0 - 1e-12):
                field = (incidents[:, None, :]
                         + shrink * radius * dirs[None, :, :]).reshape(-1, 3)
                kept = query_keeps(field, incidents, radius)
                assert kept.sum() > len(field) // 4
                assert not (kept & ~cell_pass(field, incidents, radius)).any()

    def test_keeps_a_bounded_share(self):
        # Work guard. Density 90 per 1e4 km2 against 10,000 incidents at the
        # default beam: the nearest-incident query keeps about 1.7% of the
        # sensors and the cell pass about 7%; the share does not depend on
        # the sensor count, so 500,000 sensors stand in for the 4.6M. Above
        # 12% the cell pass has stopped doing its job (outputs would still be
        # right, only slower).
        rng = np.random.default_rng(17)
        field = sphere_points(500_000, rng)
        incidents = sphere_points(10_000, rng)
        radius = search_radius(BeamGeometry())
        cells = cell_pass(field, incidents, radius)
        kept = query_keeps(field, incidents, radius)
        assert not (kept & ~cells).any()
        assert 0.01 < kept.mean() <= cells.mean() <= 0.12

    def test_non_finite_sensor_raises(self):
        incidents = np.array([[1.0, 0.0, 0.0]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate_detection({1: np.array([[bad, 0.0, 0.0]])}, incidents)

    def test_non_finite_incident_raises(self):
        field = sphere_points(100, np.random.default_rng(27))
        for bad in (np.nan, np.inf, -np.inf):
            incidents = np.array([[1.0, 0.0, 0.0], [0.0, bad, 0.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way
                with pytest.raises(ValueError, match="^incident coordinates must be finite$"):
                    simulate_detection({1: field}, incidents)

    def test_joins_a_bounded_number_of_pairs(self):
        # Work guard. Density 90 per 1e4 km2 against 10,000 incidents at the
        # default beam, as in test_keeps_a_bounded_share: each survivor of the
        # cell pass is paired with every mark in its slot's bucket, about 2.0
        # of them on average. Above 2.5 the buckets have grown crowded
        # (outputs would still be right, only slower).
        rng = np.random.default_rng(17)
        field = sphere_points(500_000, rng)
        incidents = sphere_points(10_000, rng)
        index, slots = cell_index(field, incidents, search_radius(BeamGeometry()))
        survivors = slots[index.marked[slots]]
        pairs = np.diff(index.buckets)[survivors >> geo._BUCKET_LOG2]
        assert pairs.min() >= 1
        assert pairs.mean() <= 2.5

    def test_index_memory_is_bounded_by_the_batch(self):
        # 300,000 incidents index in batches: 27 cells of three int64s each
        # would take 190 MB at once, and one batch's index takes about 26 MB
        # (the table of slots, the marks and the bucket offsets)
        rng = np.random.default_rng(28)
        incidents = sphere_points(300_000, rng)
        field = sphere_points(1_000, rng)
        tracemalloc.start()
        try:
            sample = simulate_detection({1: field}, incidents)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < sample.rate < 0.01
        assert peak <= 64 << 20  # the last batch's index lives on while the next is built


class TestJoin:
    """The join gives the detected flags of the tree count in
    detection_without_cell_pass."""

    def test_chord_boundary_matches_the_tree(self):
        # One incident, at the origin or off it, and one sensor at the chord
        # along one of the 26 grid directions, or one ulp in or out of there
        # in each coordinate.
        beam = BeamGeometry()
        chord = 2.0 * math.sin(beam.footprint_radius_km / R_EARTH_KM / 2.0)
        dirs = np.array([d for d in geo._NEIGHBOURS if d.any()], dtype=float)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        found = {}
        for centre in (np.zeros(3), unit([0.3, -0.5, 0.8])):
            incidents = centre[None, :]
            for d in dirs:
                at = centre + chord * d
                for step in (-1.0, 0.0, 1.0):
                    fields = {1: np.nextafter(at, at + step * d)[None, :]}
                    detected = simulate_detection(fields, incidents, beam).detected
                    assert np.array_equal(
                        detected, detection_without_cell_pass(fields, incidents, beam))
                    found[centre.any(), tuple(d), step] = bool(detected[0])
        # from the origin along an axis the chord is exact: in and at count, out not
        assert [found[False, (1.0, 0.0, 0.0), step] for step in (-1.0, 0.0, 1.0)] == [
            True, True, False]
        assert 0.3 < np.mean(list(found.values())) < 0.9

    def test_sum_order_matches_the_tree(self):
        # Sensors about the chord away from an incident, in random directions,
        # where summing the squared differences in x, y, z order and in z, y,
        # x order fall on opposite sides of the squared chord: about 1 in 1,600.
        beam = BeamGeometry()
        chord = 2.0 * math.sin(beam.footprint_radius_km / R_EARTH_KM / 2.0)
        incidents = unit([0.3, -0.5, 0.8])[None, :]
        field = incidents + chord * sphere_points(20_000, np.random.default_rng(32))
        square = (field - incidents) ** 2
        xyz = (square[:, 0] + square[:, 1]) + square[:, 2] <= chord * chord
        zyx = (square[:, 2] + square[:, 1]) + square[:, 0] <= chord * chord
        for inside in (True, False):
            row = np.flatnonzero((xyz != zyx) & (xyz == inside))[0]
            fields = {1: field[row:row + 1]}
            detected = simulate_detection(fields, incidents, beam).detected
            assert detected.tolist() == [inside]
            assert np.array_equal(detected,
                                  detection_without_cell_pass(fields, incidents, beam))

    def test_non_unit_coordinates_and_duplicates_match_the_tree(self):
        # points on a sphere of radius 3.5 off the origin, every sensor three
        # times and some incidents twice; about half of them detected
        rng = np.random.default_rng(29)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=70.0)
        shift = np.array([2.0, -7.0, 0.5])
        incidents = 3.5 * sphere_points(300, rng) + shift
        incidents = np.vstack([incidents, incidents[:40]])
        fields = {op: np.repeat(3.5 * sphere_points(1_000, rng) + shift, 3, axis=0)
                  for op in (1, 2)}
        sample = simulate_detection(fields, incidents, beam)
        assert np.array_equal(sample.detected,
                              detection_without_cell_pass(fields, incidents, beam))
        assert 0.1 < sample.rate < 0.9

    @pytest.mark.parametrize("slots_log2, bucket_log2", [(4, 2), (6, 6)])
    def test_slot_collisions_match_the_tree(self, monkeypatch, slots_log2, bucket_log2):
        # 16 slots in 4 buckets, or 64 slots in one: nearly every sensor
        # survives and meets the marks of a quarter or all of the incidents
        monkeypatch.setattr(geo, "_CELL_SLOTS_LOG2", slots_log2)
        monkeypatch.setattr(geo, "_BUCKET_LOG2", bucket_log2)
        rng = np.random.default_rng(30)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=30.0)
        incidents = sphere_points(60, rng)
        fields = {op: sphere_points(1_500, rng) for op in (1, 2)}
        radius = search_radius(beam)
        assert cell_pass(fields[1], incidents, radius).mean() > 0.9
        sample = simulate_detection(fields, incidents, beam)
        assert np.array_equal(sample.detected,
                              detection_without_cell_pass(fields, incidents, beam))
        assert 0.1 < sample.rate < 0.9

    def test_incident_batches_match_the_tree(self, monkeypatch):
        # 100 incidents in 15 batches, the last of 2
        monkeypatch.setattr(geo, "_INCIDENT_BATCH", 7)
        rng = np.random.default_rng(31)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=30.0)
        incidents = sphere_points(100, rng)
        fields = {op: sphere_points(2_000, rng) for op in (1, 2)}
        sample = simulate_detection(fields, incidents, beam)
        assert np.array_equal(sample.detected,
                              detection_without_cell_pass(fields, incidents, beam))
        assert 0.1 < sample.rate < 0.9


def usable_cpus(monkeypatch, count):
    """Make geo see `count` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestSplitOverCpus:
    # above geo._SPLIT_ROWS, and not a multiple of geo._CELL_CHUNK, so the
    # last span is short; 3 and 7 CPUs give more spans than this host may have
    ROWS = 300_001

    @pytest.mark.parametrize("cpus", [2, 3, 7])
    def test_sphere_points_equal_one_span(self, monkeypatch, cpus):
        assert self.ROWS >= geo._SPLIT_ROWS
        usable_cpus(monkeypatch, 1)
        serial = sphere_points(self.ROWS, np.random.default_rng(18))
        usable_cpus(monkeypatch, cpus)
        split = sphere_points(self.ROWS, np.random.default_rng(18))
        assert np.array_equal(serial.view(np.uint64), split.view(np.uint64))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_detection_equal_on_any_cpu_count(self, monkeypatch, cpus):
        # each span joins its own survivors and sets its own flags
        rng = np.random.default_rng(19)
        beam = BeamGeometry()
        field = sphere_points(self.ROWS, rng)
        field[-5:] *= 1e30  # cells beyond int64 take arbitrary slots
        fields = {1: field}
        incidents = sphere_points(2_000, rng)
        usable_cpus(monkeypatch, cpus)
        sample = simulate_detection(fields, incidents, beam)
        assert np.array_equal(sample.detected,
                              detection_without_cell_pass(fields, incidents, beam))
        assert 0.1 < sample.rate < 0.9

    def test_non_finite_in_last_span_raises(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        incidents = np.array([[1.0, 0.0, 0.0]])
        for bad in (np.nan, np.inf):
            field = sphere_points(self.ROWS, np.random.default_rng(20))
            field[-1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                simulate_detection({1: field}, incidents)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        before = threading.active_count()
        rng = np.random.default_rng(21)
        fields = {1: sphere_points(self.ROWS, rng)}
        assert threading.active_count() == before
        fields[2] = sphere_points(self.ROWS, rng)
        simulate_detection(fields, sphere_points(1_000, rng))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_generator_hand_off(self, monkeypatch, cpus):
        # integers(0, 10) draws 32 bits and leaves the other half pending;
        # the points must leave the generator as the two serial draws would
        usable_cpus(monkeypatch, cpus)
        rng, reference = np.random.default_rng(22), np.random.default_rng(22)
        for gen in (rng, reference):
            gen.integers(0, 10, 1)
        assert rng.bit_generator.state["has_uint32"]
        sphere_points(self.ROWS, rng)
        reference.uniform(-1.0, 1.0, self.ROWS)
        reference.uniform(0.0, 2.0 * math.pi, self.ROWS)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_constellation_equal_on_any_cpu_count(self, monkeypatch):
        # about 153k satellites per operator; with this seed the sub-band
        # draws of operators 1 and 3 leave a 32-bit half pending when the
        # next operator's points are drawn
        seed, density = 21, 300 / 1e6
        reference, pending = np.random.default_rng(seed), []
        for _ in range(4):
            count = int(reference.poisson(density * EARTH_AREA_KM2))
            pending.append(reference.bit_generator.state["has_uint32"])
            reference.uniform(-1.0, 1.0, 2 * count)
            reference.integers(0, 10, count)
        assert pending == [0, 1, 0, 1]

        def build(cpus):
            usable_cpus(monkeypatch, cpus)
            rng = np.random.default_rng(seed)
            constellation = build_constellation(range(1, 5), density, 10, rng)
            assert rng.bit_generator.state == reference.bit_generator.state
            return constellation

        serial = build(1)
        assert min(map(len, serial.satellites.values())) >= geo._SPLIT_ROWS
        for cpus in (2, 3, 7):
            split = build(cpus)
            for op in serial.satellites:
                assert np.array_equal(split.satellites[op].view(np.uint64),
                                      serial.satellites[op].view(np.uint64))
                assert np.array_equal(split.subbands[op], serial.subbands[op])

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                               np.random.Philox])
    def test_generators_that_cannot_jump_draw_serially(self, monkeypatch, bit_generator):
        # MT19937 and SFC64 have no advance(); Philox's skips four outputs a step
        usable_cpus(monkeypatch, 2)
        rng, reference = (np.random.Generator(bit_generator(24)) for _ in range(2))
        for gen in (rng, reference):
            gen.integers(0, 10, 1)
        pts = sphere_points(self.ROWS, rng)
        z = reference.uniform(-1.0, 1.0, self.ROWS)
        reference.uniform(0.0, 2.0 * math.pi, self.ROWS)
        assert np.array_equal(pts[:, 2], z)
        for gen in (rng, reference):
            gen.integers(0, 10, 1)
        assert np.array_equal(rng.integers(0, 10, 9), reference.integers(0, 10, 9))
        assert np.array_equal(rng.random(9), reference.random(9))

    def test_draw_holds_no_full_size_temporary(self, monkeypatch):
        # the output is 24 B a row; full-size z and phi arrays would add 16
        usable_cpus(monkeypatch, 2)
        rows = 1 << 21
        tracemalloc.start()
        try:
            sphere_points(rows, np.random.default_rng(18))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * rows + (8 << 20)
