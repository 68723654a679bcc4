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
(`workers=-1`). The rest of `sphere_points` (the random draws, square root,
cos, sin and the products) and the cell pass below also run on every usable
CPU, in contiguous row spans on threads started and joined per call, once an
array has _SPLIT_ROWS rows. Each span of the draw takes its own slices of the
one random stream from copies of the caller's PCG64 generator jumped ahead
to its rows (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014), so every
output bit is the same on any CPU count.
The interference count lists its candidates in tree-order blocks of rows, so
its memory grows with the satellites, not with the pairs.

Detection filters each sensor field in two steps:

1. A cell pass (spatial hashing on a 3-D grid, Teschner et al., "Optimized
   Spatial Hashing for Collision Detection of Deformable Objects", VMV 2003).
   The 27 grid cells around each incident are marked in a hashed boolean
   table; a sensor survives when its own cell's slot is marked. The cell
   edge is the widened chord plus slack for rounding, so two points within
   search range lie in cells at most one apart per axis: every sensor near an
   incident survives, and a hash collision only adds survivors.
2. The exact ball count, on a tree over the survivors, decides detection.

The count over the survivors is exact: every sensor within the chord of an
incident survives, and a survivor beyond the chord of every incident adds to
no count. On a density-90 field (4.6M sensors, 10,000 incidents, 2-core
host) the draw takes about 0.19 s on both cores (0.31-0.41 s on one), the
cell pass about 0.06 s (0.13 s on one) and keeps about 7% of the sensors,
gathering them 0.02 s, and the tree and count on them 0.08-0.10 s; a
nearest-incident query over the whole field took 1.6-2.0 s.
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
# _on_cores): on a 2-core host a 2**17-row draw takes about 7 ms in one span
# and 5 ms in two, a 2**18-row draw 18 ms and 11 ms.
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

    The draws are z = uniform(-1, 1, count), then phi = uniform(0, 2 pi,
    count), one 64-bit output of the bit generator per value. The work runs
    in spans on the usable CPUs (`_on_cores`), a chunk at a time: z goes to
    column 2, its buffer then holds sqrt(max(0, 1 - z*z)), and cos and sin
    share one chunk-sized temporary. PCG64 and PCG64DXSM jump ahead in
    O(log n) (`advance`), so from _SPLIT_ROWS rows on each span draws its own
    z and phi slices from copies advanced to its rows, and the caller's
    generator then jumps past both draws. Other bit generators, and shorter
    draws, draw z and phi on the calling thread first. Either way every
    output bit and every later draw from `rng` are those of the serial draw.
    """
    out = np.empty((count, 3))
    bits = rng.bit_generator
    jumps = count >= _SPLIT_ROWS and isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM))
    if jumps:
        origin = bits.state
    else:
        z = rng.uniform(-1.0, 1.0, count)
        phi = rng.uniform(0.0, 2.0 * math.pi, count)

    def advanced(delta: int) -> np.random.Generator:
        clone = type(bits)()
        clone.state = origin
        clone.advance(delta)
        return np.random.Generator(clone)

    def fill(start: int, stop: int) -> None:
        if jumps:
            z_rng, phi_rng = advanced(start), advanced(count + start)
        trig = np.empty(min(_CELL_CHUNK, stop - start))
        for lo in range(start, stop, _CELL_CHUNK):
            hi = min(lo + _CELL_CHUNK, stop)
            if jumps:
                s = z_rng.uniform(-1.0, 1.0, hi - lo)
                angle = phi_rng.uniform(0.0, 2.0 * math.pi, hi - lo)
            else:
                s, angle = z[lo:hi], phi[lo:hi]
            t = trig[:hi - lo]
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
    if jumps:
        # advance() also drops the 32-bit half an integer draw may have left
        bits.advance(2 * count)
        bits.state = {**bits.state, "has_uint32": origin["has_uint32"],
                      "uinteger": origin["uinteger"]}
    return out


def _on_cores(rows: int, work: Callable[[int, int], None]) -> None:
    """Run work(start, stop) over rows [0, rows) in contiguous spans, one per
    usable CPU, each starting at a multiple of _CELL_CHUNK.

    Below _SPLIT_ROWS rows, or on one CPU, the one span runs on the calling
    thread. Otherwise the first span runs there and the others on threads
    started for this call (numpy's ufuncs and random draws release the GIL);
    every thread is joined before this returns, and an exception from any
    span is raised.
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
    through the two steps of the module docstring: cell pass, then the exact
    ball count over its survivors.
    """
    beam = beam or BeamGeometry()
    angle = beam.footprint_radius_km / R_EARTH_KM
    chord = 2.0 * math.sin(angle / 2.0)
    radius = chord * _WIDEN
    edge = _cell_edge(incidents, radius)
    marked = _mark_cells(incidents, edge)
    detected = np.ones(len(incidents), dtype=bool)
    for op in sorted(sensor_fields):
        field = sensor_fields[op]
        if len(field) == 0:
            detected[:] = False
            break
        # A sensor within `chord` of an incident survives the cell pass, and a
        # survivor beyond it counts for no incident.
        near = field.take(np.flatnonzero(_in_marked_cells(field, marked, edge)), axis=0)
        # Sliding-midpoint splits and 64-point leaves: on the 324k survivors of
        # a density-90 field, build and count take 78 ms, against 106 ms with
        # 16-point leaves and 143 ms with scipy's default tree (2-core host).
        tree = cKDTree(near, leafsize=64, balanced_tree=False, compact_nodes=False)
        counts = tree.query_ball_point(incidents, chord, return_length=True, workers=-1)
        detected &= counts > 0
    rate = float(np.count_nonzero(detected)) / len(incidents) if len(incidents) else 0.0
    return DetectionSample(detected, rate)


def _cell_edge(incidents: np.ndarray, radius: float) -> float:
    """Grid cell edge of the cell pass: `radius` plus slack for rounding.

    A sensor within `radius` of an incident has coordinates within `radius`
    of the incident's, so a slack relative to the largest such coordinate
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
