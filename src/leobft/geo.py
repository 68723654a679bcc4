"""Constellation geometry: Poisson deployments, footprints, detection rates.

Satellites and ground sensors are homogeneous Poisson point processes on the
Earth sphere: the point count is Poisson(density * surface area) and the
positions are independently uniform. A beam from altitude h with half-angle
theta covers a ground circle of radius r = h * tan(theta) around the
sub-satellite point; two beams on the same sub-band interfere when their
centres are closer than 2r along a great circle.

A spot-beam incident at x goes undetected by an operator with sensor density
lambda exactly when its footprint circle around x is empty, which has
probability exp(-lambda * pi * r^2); detection by every honest operator is
the product of the complements.

Both kernels filter, then test exactly: a k-d tree (scipy's cKDTree) picks
candidate points within a slightly widened chord radius (`_WIDEN`), and the
exact predicate runs on the candidates only, so the results equal those of
the all-pairs test. Tree queries that accept `workers` use every core
(`workers=-1`). The elementwise work of `sphere_points` (square root, cos,
sin and the products) and the cell pass below also run on every usable CPU,
in contiguous row spans on threads started and joined per call, once an
array has _SPLIT_ROWS rows; the random draws stay serial on the calling
thread, in the same order, so every output bit is the same on any CPU count.
The interference count lists its candidates in tree-order blocks of rows, so
its memory grows with the satellites, not with the pairs.

Detection filters each sensor field in three steps:

1. A cell pass (spatial hashing on a 3-D grid, Teschner et al., "Optimized
   Spatial Hashing for Collision Detection of Deformable Objects", VMV 2003).
   The 27 grid cells around each incident are marked in a hashed boolean
   table; a sensor survives when its own cell's slot is marked. The cell
   edge is the widened chord plus slack for rounding, so two points within
   search range lie in cells at most one apart per axis: every sensor near an
   incident survives, and a hash collision only adds survivors.
2. The nearest-incident query on the survivors keeps the sensors within the
   widened chord of some incident.
3. The exact ball count on those sensors decides detection.

Boolean masks keep row order, so step 3 sees the same sensors in the same
order as a nearest-incident query over the whole field, and the outputs are
bit-identical to it. On a density-90 field (4.6M sensors, 10,000 incidents,
2-core host) the cell pass takes about 0.06 s on both cores (0.11 s on one)
and keeps about 7% of the sensors, and the query on them about 0.1 s; the
query over the whole field took 1.6-2.0 s.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

R_EARTH_KM = 6371.0
EARTH_AREA_KM2 = 4.0 * math.pi * R_EARTH_KM**2
# Relative slack on tree search radii: covers the rounding in the tree's
# distances, so the filter keeps every point the exact test keeps.
_WIDEN = 1.0 + 1e-9
# Cell pass of simulate_detection: the hashed table has 2**_CELL_SLOTS_LOG2
# boolean slots (16 MB), and the sensors are hashed _CELL_CHUNK rows at a time.
_CELL_SLOTS_LOG2 = 24
_CELL_CHUNK = 1 << 16
# count_interference lists about this many candidate pairs (~100 B each) at once
_PAIR_BUDGET = 1 << 20
# Arrays of at least this many rows are split over the usable CPUs (see
# _on_cores): a 2**17-row draw takes as long in two spans as in one on a
# 2-core host (about 10 ms), a 2**18-row draw 25% less.
_SPLIT_ROWS = 1 << 17
_NEIGHBOURS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio


@dataclass(frozen=True)
class BeamGeometry:
    altitude_km: float = 550.0
    half_angle_deg: float = 1.75

    @property
    def footprint_radius_km(self) -> float:
        return self.altitude_km * math.tan(math.radians(self.half_angle_deg))


def sphere_points(count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors uniform on the sphere, shape (count, 3).

    The two draws (z, then phi) run on the calling thread. The rest is
    elementwise and runs in spans on the usable CPUs (`_on_cores`), written
    in place a chunk at a time: z goes to column 2, its buffer then holds
    sqrt(max(0, 1 - z*z)), and cos and sin share one chunk-sized temporary.
    """
    out = np.empty((count, 3))
    z = rng.uniform(-1.0, 1.0, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)

    def fill(start: int, stop: int) -> None:
        trig = np.empty(min(_CELL_CHUNK, stop - start))
        for lo in range(start, stop, _CELL_CHUNK):
            hi = min(lo + _CELL_CHUNK, stop)
            s, angle, t = z[lo:hi], phi[lo:hi], trig[:hi - lo]
            out[lo:hi, 2] = s
            np.multiply(s, s, out=s)
            np.subtract(1.0, s, out=s)
            np.maximum(s, 0.0, out=s)
            np.sqrt(s, out=s)
            np.cos(angle, out=t)
            np.multiply(t, s, out=out[lo:hi, 0])
            np.sin(angle, out=t)
            np.multiply(t, s, out=out[lo:hi, 1])

    _on_cores(count, fill)
    return out


def _on_cores(rows: int, work: Callable[[int, int], None]) -> None:
    """Run work(start, stop) over rows [0, rows) in contiguous spans, one per
    usable CPU, each starting at a multiple of _CELL_CHUNK.

    Below _SPLIT_ROWS rows, or on one CPU, the one span runs on the calling
    thread. Otherwise the first span runs there and the others on threads
    started for this call (numpy's ufuncs release the GIL); every thread is
    joined before this returns, and an exception from any span is raised.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    chunks = -(-rows // _CELL_CHUNK)
    span = -(-chunks // cpus) * _CELL_CHUNK
    if rows < _SPLIT_ROWS or span >= rows:
        work(0, rows)
        return
    from concurrent.futures import ThreadPoolExecutor

    starts = range(span, rows, span)
    with ThreadPoolExecutor(len(starts)) as pool:
        futures = [pool.submit(work, lo, min(lo + span, rows)) for lo in starts]
        work(0, span)
        for future in futures:
            future.result()


def deploy_poisson(density_per_km2: float, rng: np.random.Generator) -> np.ndarray:
    """One Poisson point process realisation on the Earth sphere."""
    if density_per_km2 < 0:
        raise ValueError("density must be >= 0")
    count = int(rng.poisson(density_per_km2 * EARTH_AREA_KM2))
    return sphere_points(count, rng)


@dataclass
class Constellation:
    beam: BeamGeometry
    satellites: Dict[int, np.ndarray]       # operator -> unit vectors (n, 3)
    subbands: Dict[int, np.ndarray]         # operator -> sub-band id per satellite


def build_constellation(operator_ids: Sequence[int], density_per_km2: float,
                        n_subbands: int, rng: np.random.Generator) -> Constellation:
    """Independent Poisson constellations with uniform random sub-bands."""
    if n_subbands < 1:
        raise ValueError("need at least one sub-band")
    satellites = {}
    subbands = {}
    for op in operator_ids:
        pts = deploy_poisson(density_per_km2, rng)
        satellites[op] = pts
        if n_subbands == 1:
            subbands[op] = np.zeros(len(pts), dtype=np.int64)
        else:
            subbands[op] = rng.integers(0, n_subbands, len(pts))
    return Constellation(BeamGeometry(), satellites, subbands)


def count_interference(constellation: Constellation) -> int:
    """Unordered cross-operator pairs with overlapping same-band footprints.

    Footprints of radius r overlap exactly when the great-circle distance of
    their centres is below 2r, that is when the dot product of the unit
    vectors exceeds cos(2r/R). Candidate pairs come from one k-d tree per
    operator; the dot-product and sub-band tests run on the candidates only.

    Operator a's rows meet the later operators in blocks of about _PAIR_BUDGET
    expected candidates (a row expects len(b) (1 - cos(2r/R)) / 2 of the
    largest later b), in a's tree order (`cKDTree.indices`), so that each block
    is a compact patch with its own tree. At benchmark sizes one block is all of a.
    """
    angle = 2.0 * constellation.beam.footprint_radius_km / R_EARTH_KM
    cos_threshold = math.cos(angle)
    # half the chord of the angle (1 at most); its square is (1 - cos(angle)) / 2
    half_chord = math.sin(min(angle, math.pi) / 2.0)
    radius = 2.0 * half_chord * _WIDEN
    satellites, subbands = constellation.satellites, constellation.subbands
    # operators without satellites add no pairs (their arrays may be 1-D)
    ops = [op for op in sorted(satellites) if len(satellites[op])]
    trees = {op: cKDTree(satellites[op]) for op in ops}
    total = 0
    for i, a in enumerate(ops[:-1]):
        later = ops[i + 1:]
        n = len(satellites[a])
        per_row = half_chord**2 * max(len(satellites[b]) for b in later)
        step = n if per_row * n <= _PAIR_BUDGET else max(1, int(_PAIR_BUDGET / per_row))
        for lo in range(0, n, step):
            rows = trees[a].indices[lo:lo + step]
            pts, sb = satellites[a][rows], subbands[a][rows]
            # sliding-midpoint splits: listings against b's tree take half the time
            tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
            for b in later:
                pairs = tree.sparse_distance_matrix(trees[b], radius, output_type="ndarray")
                ia, ib = pairs["i"], pairs["j"]
                dots = np.einsum("ij,ij->i", pts[ia], satellites[b][ib])
                mask = dots > cos_threshold
                mask &= sb[ia] == subbands[b][ib]
                total += int(np.count_nonzero(mask))
    return total


def interference_sweep(densities_per_million_km2: Sequence[float], n_operators: int,
                       n_subbands: int, trials: int, seed: int) -> List[Tuple[float, float]]:
    """Mean incident count per density, averaged over independent trials."""
    rows = []
    for di, density in enumerate(densities_per_million_km2):
        counts = []
        for t in range(trials):
            rng = np.random.default_rng(_substream(seed, "sweep", di, t))
            constellation = build_constellation(
                range(1, n_operators + 1), density / 1e6, n_subbands, rng
            )
            counts.append(count_interference(constellation))
        rows.append((density, sum(counts) / len(counts)))
    return rows


def detection_probability_theory(sensor_densities_per_km2: Sequence[float],
                                 beam: Optional[BeamGeometry] = None) -> float:
    """Probability that every listed operator has a sensor in the footprint."""
    beam = beam or BeamGeometry()
    area = math.pi * beam.footprint_radius_km**2
    p = 1.0
    for lam in sensor_densities_per_km2:
        if lam < 0:
            raise ValueError("sensor density must be >= 0")
        p *= 1.0 - math.exp(-lam * area)
    return p


@dataclass
class DetectionSample:
    detected: np.ndarray  # bool per incident
    rate: float


def simulate_detection(sensor_fields: Dict[int, np.ndarray], incidents: np.ndarray,
                       beam: Optional[BeamGeometry] = None) -> DetectionSample:
    """Check, per incident, whether every operator has a sensor within the footprint.

    Membership uses the chord radius equivalent to the great-circle footprint
    radius, so the footprint is an exact spherical cap. Each field goes
    through the three steps of the module docstring: cell pass,
    nearest-incident query, exact ball count.
    """
    beam = beam or BeamGeometry()
    angle = beam.footprint_radius_km / R_EARTH_KM
    chord = 2.0 * math.sin(angle / 2.0)
    radius = chord * _WIDEN
    incident_tree = cKDTree(incidents)
    edge = _cell_edge(incidents, radius)
    marked = _mark_cells(incidents, edge)
    detected = np.ones(len(incidents), dtype=bool)
    for op in sorted(sensor_fields):
        field = sensor_fields[op]
        if len(field) == 0:
            detected[:] = False
            break
        # The cell pass, then the nearest-incident query on its survivors: a
        # sensor within `chord` of any incident is within it of its nearest
        # one, so dropping the others leaves every per-incident count intact.
        near = field[_in_marked_cells(field, marked, edge)]
        nearest, _ = incident_tree.query(near, k=1, distance_upper_bound=radius, workers=-1)
        tree = cKDTree(near[np.isfinite(nearest)])
        counts = tree.query_ball_point(incidents, chord, return_length=True, workers=-1)
        detected &= counts > 0
    rate = float(np.count_nonzero(detected)) / len(incidents) if len(incidents) else 0.0
    return DetectionSample(detected, rate)


def _cell_edge(incidents: np.ndarray, radius: float) -> float:
    """Grid cell edge of the cell pass: `radius` plus slack for rounding.

    A sensor the nearest-incident query keeps has coordinates within `radius`
    of an incident's, so a slack relative to the largest such coordinate
    covers the rounding in the tree's distances and in floor(x / edge).
    """
    largest = float(np.abs(incidents).max(initial=0.0))
    return radius + (largest + 2.0 * radius) * 2.0**-40


def _cell_slots(cells: np.ndarray, keys: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Table slot of each grid cell (a row of three int64 cell coordinates).

    The coordinates pack into `keys` 21 bits apart, which is one-to-one below
    2**20 per axis (beyond that two cells may share a slot, which only adds
    survivors), and Fibonacci hashing spreads the keys over the table.
    """
    np.left_shift(cells[:, 0], 42, out=keys)
    np.left_shift(cells[:, 1], 21, out=tmp)
    keys += tmp
    keys += cells[:, 2]
    slots = keys.view(np.uint64)
    slots *= _FIBONACCI
    slots >>= np.uint64(64 - _CELL_SLOTS_LOG2)
    return keys


def _mark_cells(incidents: np.ndarray, edge: float) -> np.ndarray:
    """Hashed table with the 27 grid cells around each incident marked."""
    home = np.floor(incidents / edge).astype(np.int64)
    cells = (home[:, None, :] + _NEIGHBOURS).reshape(-1, 3)
    marked = np.zeros(1 << _CELL_SLOTS_LOG2, dtype=bool)
    marked[_cell_slots(cells, np.empty(len(cells), np.int64),
                       np.empty(len(cells), np.int64))] = True
    return marked


def _in_marked_cells(field: np.ndarray, marked: np.ndarray, edge: float) -> np.ndarray:
    """Mask of the sensors whose grid cell has a marked slot.

    Runs in spans on the usable CPUs (`_on_cores`), each chunk by chunk on
    buffers of its own. The cell coordinate is floor(x / edge), so negative
    coordinates get cells of the same width; a sensor too far out for an
    int64 cell is far from every incident, and its arbitrary slot only adds
    a survivor. Non-finite coordinates raise ValueError, as the tree query
    would.
    """
    keep = np.empty(len(field), dtype=bool)

    def hash_span(start: int, stop: int) -> None:
        scaled = np.empty((_CELL_CHUNK, 3))
        cells = np.empty((_CELL_CHUNK, 3), dtype=np.int64)
        keys = np.empty(_CELL_CHUNK, dtype=np.int64)
        tmp = np.empty(_CELL_CHUNK, dtype=np.int64)
        # numpy error state is per thread, so each span sets its own
        with np.errstate(invalid="ignore"):
            for lo in range(start, stop, _CELL_CHUNK):
                chunk = field[lo:min(lo + _CELL_CHUNK, stop)]
                n = len(chunk)
                np.divide(chunk, edge, out=scaled[:n])
                if not np.isfinite(scaled[:n]).all():
                    raise ValueError("sensor coordinates must be finite")
                np.floor(scaled[:n], out=scaled[:n])
                np.copyto(cells[:n], scaled[:n], casting="unsafe")
                np.take(marked, _cell_slots(cells[:n], keys[:n], tmp[:n]),
                        out=keep[lo:lo + n])

    _on_cores(len(field), hash_span)
    return keep


def detection_sweep(densities_per_10k_km2: Sequence[float], n_honest: int,
                    trials: int, seed: int) -> List[Tuple[float, float, float]]:
    """(density, empirical rate, theory rate) per sensor density.

    Each of the `trials` incidents is a freshly sampled adversarial satellite
    position; honest sensor fields are one Poisson realisation per density.
    """
    rows = []
    for di, density in enumerate(densities_per_10k_km2):
        lam = density / 1e4
        fields = {
            op: deploy_poisson(lam, np.random.default_rng(_substream(seed, "field", di, op)))
            for op in range(1, n_honest + 1)
        }
        incidents = sphere_points(trials, np.random.default_rng(_substream(seed, "incident", di)))
        sample = simulate_detection(fields, incidents)
        theory = detection_probability_theory([lam] * n_honest)
        rows.append((density, sample.rate, theory))
    return rows


def _substream(seed: int, *labels) -> int:
    from .auth import derive_seed

    return derive_seed(seed, "geo", *labels)
