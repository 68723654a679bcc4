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

Both kernels filter, then test exactly: candidate points within a slightly
widened chord radius (`_WIDEN`) come from a k-d tree (scipy's cKDTree) for
interference and from a spatial hash for detection, and the exact predicate
runs on the candidates only, so the results equal those of the all-pairs
test. `sphere_points` (the random draws, square root, cos, sin and the
products) and both steps of detection below run on every usable CPU, in
contiguous row spans on threads started and joined per call, once an array
has _SPLIT_ROWS rows. Each span of the draw takes its own slices of the one
random stream from copies of the caller's PCG64 generator jumped ahead to its
rows (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", 2014), so every output bit is
the same on any CPU count.
The interference count lists its candidates in tree-order blocks of rows, so
its memory grows with the satellites, not with the pairs.

Detection indexes the incidents _INCIDENT_BATCH at a time, then filters each
sensor field against each batch in two steps:

1. A cell pass (spatial hashing on a 3-D grid, Teschner et al., "Optimized
   Spatial Hashing for Collision Detection of Deformable Objects", VMV 2003).
   The 27 grid cells around each incident are marked in a hashed boolean
   table, and the (slot, incident) marks are listed by bucket of 64 slots;
   a sensor survives when its own cell's slot is marked. The cell edge is the
   widened chord plus slack for rounding, so two points within search range
   lie in cells at most one apart per axis: every sensor near an incident
   survives, and a hash collision only adds survivors.
2. A join: each survivor is paired with every incident listed in its slot's
   bucket, and the exact test of `cKDTree.query_ball_point` on each pair
   (squared differences summed in x, y, z order, at most the squared chord)
   decides which incidents the field detects.

The join is exact: a sensor within the chord of an incident lies in one of
the incident's 27 cells, so it survives and meets that incident, and a pair
beyond the chord detects nothing. On a density-90 field (4.6M sensors,
10,000 incidents, 2-core host, medians of 7 over two runs) the draw takes
about 0.18 s on both cores (0.31-0.35 s on one), the index 0.01 s, the cell
pass 0.07 s (0.12-0.13 s on one) and keeps about 7% of the sensors, and the
join 0.02 s more (0.02-0.03 s on one); a nearest-incident query over the
whole field took 1.6-2.0 s.
"""

from __future__ import annotations

import itertools
import math
import os  # noqa: F401  kept as geo.os: callers pin the CPUs usable_cpus sees through it
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .cores import usable_cpus

R_EARTH_KM = 6371.0
EARTH_AREA_KM2 = 4.0 * math.pi * R_EARTH_KM**2
# Relative slack on search radii: covers the rounding in the filters'
# distances, so each filter keeps every point the exact test keeps.
_WIDEN = 1.0 + 1e-9
# Cell pass of simulate_detection: the hashed table has 2**_CELL_SLOTS_LOG2
# boolean slots (16 MB), and the sensors are hashed _CELL_CHUNK rows at a time.
_CELL_SLOTS_LOG2 = 24
_CELL_CHUNK = 1 << 16
# Incidents indexed at once. A batch marks at most 5.3% of the table (27 slots
# an incident). Against 300,000 incidents, one density-90 field took 3.2-3.3 s
# in batches of 2**14, 2.4-2.5 s in 2**15 and 3.1-3.4 s in 2**16 (2-core host).
_INCIDENT_BATCH = 1 << 15
# The index lists its marks by bucket of 2**_BUCKET_LOG2 slots, with one
# offset per bucket (2 MB of int64); each survivor meets its bucket's marks.
_BUCKET_LOG2 = 6
# Cell-pass chunks whose survivors are joined at once. Three density-90 fields
# took 309 ms in groups of 4, 323-334 ms in groups of 1, 2 or 16, and 362 ms in
# one group per span (2-core host, medians of 15).
_JOIN_CHUNKS = 4
# count_interference lists about this many candidate pairs (~100 B each) at once
_PAIR_BUDGET = 1 << 20
# Arrays of at least this many rows are split over the usable CPUs (see
# _on_cores): on a 2-core host a 2**17-row draw takes about 7 ms in one span
# and 5 ms in two, a 2**18-row draw 18 ms and 11 ms.
_SPLIT_ROWS = 1 << 17
_NEIGHBOURS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_NEIGHBOUR_KEYS = _NEIGHBOURS @ np.array([1 << 42, 1 << 21, 1])  # as _cell_keys packs them
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
    cpus = usable_cpus()
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
    radius, so the footprint is an exact spherical cap. Incidents are indexed
    _INCIDENT_BATCH at a time, and each field goes through the two steps of
    the module docstring against each batch: cell pass, then the join of its
    survivors to the incidents listed in their slots' buckets.
    """
    beam = beam or BeamGeometry()
    angle = beam.footprint_radius_km / R_EARTH_KM
    chord = 2.0 * math.sin(angle / 2.0)
    edge = _cell_edge(incidents, chord * _WIDEN)
    fields = list(sensor_fields.values())
    detected = np.ones(len(incidents), dtype=bool)
    if not all(len(field) for field in fields):  # a field without sensors detects nothing
        detected[:] = False
    else:
        for lo in range(0, len(incidents), _INCIDENT_BATCH):
            batch = incidents[lo:lo + _INCIDENT_BATCH]
            index = _index_cells(batch, edge)
            for field in fields:
                detected[lo:lo + len(batch)] &= _near_incidents(field, batch, index, edge, chord)
    rate = float(np.count_nonzero(detected)) / len(incidents) if len(incidents) else 0.0
    return DetectionSample(detected, rate)


def _cell_edge(incidents: np.ndarray, radius: float) -> float:
    """Grid cell edge of the cell pass: `radius` plus slack for rounding.

    A sensor within `radius` of an incident has coordinates within `radius`
    of the incident's, so a slack relative to the largest such coordinate
    covers the rounding in the distances and in floor(x / edge). Non-finite
    incident coordinates raise ValueError.
    """
    low, high = float(incidents.min(initial=0.0)), float(incidents.max(initial=0.0))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("incident coordinates must be finite")
    return radius + (max(high, -low) + 2.0 * radius) * 2.0**-40


def _cell_keys(cells: np.ndarray, keys: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Grid cells (rows of three int64 cell coordinates) packed into `keys`.

    The coordinates go 21 bits apart, which is one-to-one below 2**20 per
    axis (beyond that two cells may share a key, which only adds survivors).
    The packing is linear modulo 2**64: a cell's key plus an offset's key is
    the key of the offset cell.
    """
    np.left_shift(cells[:, 0], 42, out=keys)
    np.left_shift(cells[:, 1], 21, out=tmp)
    keys += tmp
    keys += cells[:, 2]
    return keys


def _slots(keys: np.ndarray) -> np.ndarray:
    """Table slots of packed cell keys, in place: Fibonacci hashing spreads
    them over the 2**_CELL_SLOTS_LOG2 slots."""
    slots = keys.view(np.uint64)
    slots *= _FIBONACCI
    slots >>= np.uint64(64 - _CELL_SLOTS_LOG2)
    return keys


class _CellIndex(NamedTuple):
    """The 27 grid cells around each incident of a batch, by bucket of table slots."""

    marked: np.ndarray   # bool per slot: some incident's cell has it
    marks: np.ndarray    # the incident row of each (cell, incident) mark, by bucket
    buckets: np.ndarray  # the marks of the slots b << _BUCKET_LOG2 up to
    #                      (b + 1) << _BUCKET_LOG2 are marks[buckets[b]:buckets[b + 1]]


def _index_cells(incidents: np.ndarray, edge: float) -> _CellIndex:
    """The _CellIndex of one batch of incidents on the grid of cell edge `edge`."""
    home = np.floor(incidents / edge).astype(np.int64)
    keys = _cell_keys(home, np.empty(len(home), np.int64), np.empty(len(home), np.int64))
    cells = keys[:, None] + _NEIGHBOUR_KEYS  # row i: the 27 cells around incident i
    slots = _slots(cells.reshape(-1))  # a view of cells
    marked = np.zeros(1 << _CELL_SLOTS_LOG2, dtype=bool)
    marked[slots] = True
    slots >>= _BUCKET_LOG2
    buckets = np.zeros((1 << (_CELL_SLOTS_LOG2 - _BUCKET_LOG2)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(slots, minlength=len(buckets) - 1), out=buckets[1:])
    # sort the marks by bucket, kept above the incident row's 32 bits
    slots <<= 32
    cells += np.arange(len(cells))[:, None]  # the incident row of each mark
    slots.sort()
    slots &= 0xFFFFFFFF
    return _CellIndex(marked, slots, buckets)


def _near_incidents(field: np.ndarray, incidents: np.ndarray, index: _CellIndex,
                    edge: float, chord: float) -> np.ndarray:
    """Per incident, whether some sensor of `field` lies within `chord` of it.

    Runs in spans on the usable CPUs (`_on_cores`), each on buffers of its
    own. A chunk's cell pass keeps the sensors whose cell has a marked slot;
    the survivors of _JOIN_CHUNKS chunks then meet every mark in their slot's
    bucket, and each pair takes the exact test of `cKDTree.query_ball_point`:
    squared differences summed in x, y, z order, at most chord * chord. Each
    span sets its own flags, and the flags are OR-ed after the spans join.
    The cell coordinate is floor(x / edge), so negative coordinates get cells
    of the same width; a sensor too far out for an int64 cell is far from
    every incident, and its arbitrary slot only adds a survivor. Non-finite
    sensor coordinates raise ValueError.
    """
    bound = chord * chord
    found: List[np.ndarray] = []

    def join(points: np.ndarray, slots: np.ndarray, near: np.ndarray) -> None:
        # survivor i meets the count[i] marks from first[i] on; its own slot
        # is marked, so every count is at least 1
        slots >>= _BUCKET_LOG2
        first = index.buckets.take(slots)
        count = index.buckets.take(slots + 1)
        count -= first
        # pair j belongs to the survivor i with ends[i - 1] <= j < ends[i]
        ends = np.cumsum(count)
        owner = np.zeros(count.sum(), dtype=np.intp)
        owner[ends[:-1]] = 1
        np.cumsum(owner, out=owner)
        first += count - ends  # pair j is then mark first[owner[j]] + j
        pair = first.take(owner)
        pair += np.arange(len(pair))
        inc = index.marks.take(pair)
        diff = points.take(owner, axis=0)
        diff -= incidents.take(inc, axis=0)
        diff *= diff
        dist = diff[:, 0] + diff[:, 1]
        dist += diff[:, 2]
        near[inc[dist <= bound]] = True

    def join_span(start: int, stop: int) -> None:
        near = np.zeros(len(incidents), dtype=bool)
        scaled = np.empty((_CELL_CHUNK, 3))
        cells = np.empty((_CELL_CHUNK, 3), dtype=np.int64)
        keys = np.empty(_CELL_CHUNK, dtype=np.int64)
        tmp = np.empty(_CELL_CHUNK, dtype=np.int64)
        keep = np.empty(_CELL_CHUNK, dtype=bool)
        points: List[np.ndarray] = []
        slots: List[np.ndarray] = []
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
                slot = _slots(_cell_keys(cells[:n], keys[:n], tmp[:n]))
                np.take(index.marked, slot, out=keep[:n])
                hit = np.flatnonzero(keep[:n])
                points.append(chunk.take(hit, axis=0))
                slots.append(slot.take(hit))
                if len(slots) == _JOIN_CHUNKS or lo + n == stop:
                    join(np.concatenate(points), np.concatenate(slots), near)
                    points, slots = [], []
        found.append(near)

    _on_cores(len(field), join_span)
    return np.logical_or.reduce(found)


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
