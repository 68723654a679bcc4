"""Geometry tests: sphere sampling, footprints, interference, detection."""

import math

import numpy as np
import pytest

from leobft import geo
from leobft.geo import (
    EARTH_AREA_KM2,
    R_EARTH_KM,
    BeamGeometry,
    CellGrid,
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

    def test_zero_density_gives_empty_field(self):
        assert len(deploy_poisson(0.0, np.random.default_rng(4))) == 0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            deploy_poisson(-1.0, np.random.default_rng(5))


class TestInterferenceCounting:
    def _manual(self, positions_a, positions_b, bands_a, bands_b, beam):
        count = 0
        threshold = 2.0 * beam.footprint_radius_km / R_EARTH_KM
        for pa, ba in zip(positions_a, bands_a):
            for pb, bb in zip(positions_b, bands_b):
                angle = math.acos(min(1.0, max(-1.0, float(np.dot(pa, pb)))))
                if angle < threshold and ba == bb:
                    count += 1
        return count

    def _make(self, sats, bands, beam=None):
        beam = beam or BeamGeometry()
        return Constellation(
            beam,
            {op: np.array(pts, dtype=float) for op, pts in sats.items()},
            {op: np.array(b, dtype=np.int64) for op, b in bands.items()},
            n_subbands=max((max(b) + 1 for b in bands.values() if len(b)), default=1),
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
        rng = np.random.default_rng(6)
        beam = BeamGeometry(altitude_km=550.0, half_angle_deg=20.0)  # big caps
        pts_a = sphere_points(120, rng)
        pts_b = sphere_points(150, rng)
        bands_a = rng.integers(0, 2, 120)
        bands_b = rng.integers(0, 2, 150)
        c = self._make({1: pts_a, 2: pts_b}, {1: bands_a, 2: bands_b}, beam)
        manual = self._manual(pts_a, pts_b, bands_a, bands_b, beam)
        assert count_interference(c) == manual
        # a third operator with no satellites adds no pairs and no errors
        c = self._make({1: pts_a, 2: [], 3: pts_b}, {1: bands_a, 2: [], 3: bands_b}, beam)
        assert count_interference(c) == manual

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


class TestCellGrid:
    def test_default_cell_count(self):
        assert CellGrid().n_cells == 20000

    def test_known_directions(self):
        grid = CellGrid(200, 100)
        cells = grid.cell_of(np.array([
            [0.0, 0.0, 1.0],    # north pole: polar bin 0
            [0.0, 0.0, -1.0],   # south pole: polar bin 99 (clipped)
            [1.0, 0.0, 0.0],    # equator at azimuth 0
        ]))
        assert cells[0] == 0
        assert cells[1] == 99
        assert cells[2] == 50

    def test_all_cells_in_range(self):
        grid = CellGrid()
        cells = grid.cell_of(sphere_points(5000, np.random.default_rng(7)))
        assert cells.min() >= 0
        assert cells.max() < grid.n_cells

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            CellGrid(0, 10)


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

    def test_incident_cells_recorded(self):
        incidents = sphere_points(100, np.random.default_rng(12))
        fields = {1: sphere_points(1000, np.random.default_rng(13))}
        sample = simulate_detection(fields, incidents)
        assert len(sample.incident_cells) == 100
        assert sample.incident_cells.max() < CellGrid().n_cells

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

    def test_no_incidents_gives_zero_rate(self):
        fields = {1: sphere_points(100, np.random.default_rng(15))}
        sample = simulate_detection(fields, np.empty((0, 3)))
        assert sample.rate == 0.0
        assert len(sample.detected) == 0
        assert len(sample.incident_cells) == 0
