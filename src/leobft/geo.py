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

Both kernels filter on one grid, then test exactly. Space is cut into cubes
whose edge is a slightly widened chord radius (`_WIDEN`) plus slack for
rounding (`_cell_edge`), so two points within search range lie in cells at
most one apart per axis, and each cell's three coordinates are packed into
one int64 key (`_cell_keys`; spatial hashing, Teschner et al., "Optimized
Spatial Hashing for Collision Detection of Deformable Objects", VMV 2003).
The exact predicate runs on the candidates only, so the results equal those
of the all-pairs test. `sphere_points` (the random draws, square root, cos,
sin and the products) and both steps of detection below run on every usable
CPU, in contiguous row spans on threads started and joined per call, once an
array has _SPLIT_ROWS rows. Each span of the draw takes its own slices of the
one random stream from copies of the caller's PCG64 generator jumped ahead to
its rows (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014), so every
output bit is the same on any CPU count.

Interference is one cell join over every operator's satellites: sorted by
their cell keys (with the sub-band mixed in), each group of satellites meets
itself and the groups at the 13 forward offsets, one of each opposite pair,
and the pairs of the meetings take the dot-product, sub-band and operator
tests about _PAIR_BUDGET at a time, so memory grows with the satellites, not
with the pairs, and time with the pairs, not with the operators.

Detection indexes the incidents _INCIDENT_BATCH at a time, then filters each
sensor field against each batch in two steps:

1. A cell pass. The 27 grid cells around each incident are marked in a hashed
   boolean table, and the (slot, incident) marks are listed by bucket of 64
   slots; a sensor survives when its own cell's slot is marked. Every sensor
   near an incident survives, and a hash collision only adds survivors.
2. A join: each survivor is paired with every incident listed in its slot's
   bucket, and the exact test that scipy's `cKDTree.query_ball_point` applies
   (squared differences summed in x, y, z order, at most the squared chord)
   decides on each pair which incidents the field detects.

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
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
# count_interference tests about this many candidate pairs (~20 B each) at once.
# 2e6 satellites of 3 operators took 2.3 s in blocks of 2**16, 2.4 s in 2**18
# and 2.7 s in 2**20; at the same density per cell with 10 times the pairs,
# 5.9 s, 5.3 s and 5.4 s (2-core host).
_PAIR_BUDGET = 1 << 18
# count_interference lists the meetings of this many groups at once (up to 14
# meetings a group, ~100 B each), so the list stays small at any density
_JOIN_GROUPS = 1 << 14
# Arrays of at least this many rows are split over the usable CPUs (see
# _on_cores): on a 2-core host a 2**17-row draw takes about 7 ms in one span
# and 5 ms in two, a 2**18-row draw 18 ms and 11 ms.
_SPLIT_ROWS = 1 << 17
_NEIGHBOURS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_NEIGHBOUR_KEYS = _NEIGHBOURS @ np.array([1 << 42, 1 << 21, 1])  # as _cell_keys packs them
# one of each pair of opposite offsets: the cell join meets each pair of groups once
_FORWARD_KEYS = _NEIGHBOUR_KEYS[_NEIGHBOUR_KEYS > 0]
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
    vectors exceeds cos(2r/R). The dot product is x x' + z z', plus y y',
    the order in which numpy's einsum sums rows of three.

    Candidates come from one cell join over every operator's satellites, on
    the grid of detection's cell pass (see the module docstring):
    `_sort_by_cell` puts the satellites in group-key order, and
    `_join_blocks` meets each group with itself and with the groups at the
    13 forward offsets and hands out the pairs of meetings of one shape,
    about _PAIR_BUDGET at a time. Non-finite coordinates raise ValueError.
    """
    angle = 2.0 * constellation.beam.footprint_radius_km / R_EARTH_KM
    cos_threshold = math.cos(angle)
    # the chord of the angle, 2 at most: beyond it every pair is a candidate
    radius = 2.0 * math.sin(min(angle, math.pi) / 2.0) * _WIDEN
    # operators without satellites add no pairs (their arrays may be 1-D)
    ops = [op for op in sorted(constellation.satellites) if len(constellation.satellites[op])]
    points = [np.asarray(constellation.satellites[op], dtype=float) for op in ops]
    bands = [np.asarray(constellation.subbands[op]) for op in ops]
    reach = np.array([(pts.min(), pts.max()) for pts in points]).reshape(-1, 2)
    edge = _cell_edge(reach, radius, "satellite")
    if len(ops) < 2:
        return 0
    coords, label, band, starts, groups = _sort_by_cell(points, bands, edge)
    total = 0
    for i, j, own in _join_blocks(groups, starts):
        # the tests run on (a, b, n): row i[r, k] against column j[c, k]
        pi, pj = coords.take(i, axis=1), coords.take(j, axis=1)
        dot = pi[0, :, None] * pj[0, None]
        term = pi[2, :, None] * pj[2, None]
        dot += term
        np.multiply(pi[1, :, None], pj[1, None], out=term)
        dot += term
        hit = dot > cos_threshold
        hit &= band.take(i)[:, None] == band.take(j)[None]
        hit &= label.take(i)[:, None] != label.take(j)[None]
        if own:
            hit &= i[:, None] < j[None]
        total += int(np.count_nonzero(hit))
    return total


def _sort_by_cell(points: List[np.ndarray], bands: List[np.ndarray], edge: float):
    """Every operator's satellites in one array, sorted by group key.

    A satellite's group key is the packed key of its grid cell (`_cell_keys`)
    plus its sub-band id times _FIBONACCI, modulo 2**64. The sum is linear,
    so the group at a cell offset is found by adding the offset's key, and
    satellites of different sub-bands mostly fall into different groups; a
    shared key only adds candidates. Returns the coordinates (3, T), the
    operator's index and the sub-band id of each sorted satellite, the start
    of each group (and T at the end) and the group keys.
    """
    keys = np.empty(sum(map(len, points)), dtype=np.int64)
    buffers = _CellBuffers()
    at = 0
    with np.errstate(invalid="ignore"):
        for pts, band in zip(points, bands):
            for lo in range(0, len(pts), _CELL_CHUNK):
                chunk = pts[lo:lo + _CELL_CHUNK]
                key = buffers.keys(chunk, edge, "satellite", keys[at:at + len(chunk)])
                mix = band[lo:lo + len(chunk)].astype(np.uint64)
                mix *= _FIBONACCI
                key += mix.view(np.int64)
                at += len(chunk)
    order = keys.argsort()
    keys.sort()
    starts = np.flatnonzero(keys[1:] != keys[:-1])
    starts += 1
    starts = np.r_[0, starts, len(keys)]
    groups = keys.take(starts[:-1])
    del keys
    position = np.empty(len(order), dtype=np.min_scalar_type(len(order)))
    position[order] = np.arange(len(order), dtype=position.dtype)
    del order
    coords = np.empty((3, len(position)))
    label = np.empty(len(position), dtype=np.min_scalar_type(len(points)))
    ids = np.concatenate([(band.min(), band.max()) for band in bands])
    if ids.dtype.kind in "iu":
        band_type = np.promote_types(np.min_scalar_type(ids.min()), np.min_scalar_type(ids.max()))
    else:
        band_type = ids.dtype
    band_ids = np.empty(len(position), dtype=band_type)
    at = 0
    for index, (pts, band) in enumerate(zip(points, bands)):
        rows = position[at:at + len(pts)]
        coords[:, rows] = pts.T
        label[rows] = index
        band_ids[rows] = band
        at += len(pts)
    return coords, label, band_ids, starts, groups


def _join_blocks(groups: np.ndarray, starts: np.ndarray
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray, bool]]:
    """The candidate pairs of the cell join, about _PAIR_BUDGET at a time.

    Each group of two or more satellites meets itself (row i, column j,
    i < j), and each group meets the group at each forward offset, if there
    is one (every row with every column). A meeting whose rows times columns
    exceed _PAIR_BUDGET is cut into pieces of fewer rows. Meetings of the
    same shape (rows, columns, a group with itself or not) go together:
    each block is (i, j, own), the sorted positions of the rows (a, n) and
    of the columns (b, n) of n meetings, with a * b * n at most _PAIR_BUDGET
    unless one meeting is larger.
    """
    count = np.diff(starts)
    for g0 in range(0, len(groups), _JOIN_GROUPS):
        window = groups[g0:g0 + _JOIN_GROUPS]
        first = [np.flatnonzero(count[g0:g0 + _JOIN_GROUPS] > 1)]
        second = [first[0] + g0]
        for offset in _FORWARD_KEYS:
            want = window + offset
            found = np.searchsorted(groups, want)
            hit = np.flatnonzero(groups.take(found, mode="clip") == want)
            first.append(hit)
            second.append(found.take(hit))
        own = np.zeros(sum(map(len, first)), dtype=bool)
        own[:len(first[0])] = True
        first, second = np.concatenate(first) + g0, np.concatenate(second)
        yield from _shaped_blocks(starts.take(first), count.take(first),
                                  starts.take(second), count.take(second), own)


def _shaped_blocks(row0: np.ndarray, rows: np.ndarray, col0: np.ndarray, cols: np.ndarray,
                   own: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray, bool]]:
    """The blocks of `_join_blocks` from meetings of rows from row0 on with
    columns from col0 on."""
    if not len(rows):
        return
    # piece k of a meeting has rows k * per up to (k + 1) * per
    per = np.maximum(_PAIR_BUDGET // cols, 1)
    meeting, piece = _runs(np.zeros_like(rows), -(-rows // per))
    per = per.take(meeting)
    piece *= per
    row0 = row0.take(meeting) + piece
    rows = np.minimum(per, rows.take(meeting) - piece)
    col0, cols, own = col0.take(meeting), cols.take(meeting), own.take(meeting)
    shape = rows * (cols.max(initial=0) + 1) + cols
    shape <<= 1
    shape |= own
    order = shape.astype(np.min_scalar_type(shape.max(initial=0))).argsort(kind="stable")
    row0, rows, col0, cols, own = (x.take(order) for x in (row0, rows, col0, cols, own))
    cuts = np.flatnonzero(np.diff(shape.take(order))) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(rows)]):
        a, b = int(rows[lo]), int(cols[lo])
        step = max(1, _PAIR_BUDGET // (a * b))
        down, across = np.arange(a)[:, None], np.arange(b)[:, None]
        for at in range(lo, hi, step):
            yield row0[at:min(at + step, hi)] + down, col0[at:min(at + step, hi)] + across, own[lo]


def _runs(first: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run i stands for first[i], first[i] + 1, ..., first[i] + count[i] - 1.

    Returns (owner, value) over the runs in order: value[k] is the k-th
    number and owner[k] the run it belongs to.
    """
    owner = np.repeat(np.arange(len(count)), count)
    value = first - np.cumsum(count)
    value += count  # first[i] minus the numbers before run i
    value = value.take(owner)
    value += np.arange(len(value))
    return owner, value


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
    for lo in range(0, len(incidents), _INCIDENT_BATCH):
        batch = incidents[lo:lo + _INCIDENT_BATCH]
        index = _index_cells(batch, edge)
        for field in fields:
            detected[lo:lo + len(batch)] &= _near_incidents(field, batch, index, edge, chord)
    rate = float(np.count_nonzero(detected)) / len(incidents) if len(incidents) else 0.0
    return DetectionSample(detected, rate)


def _cell_edge(points: np.ndarray, radius: float, what: str = "incident") -> float:
    """Grid cell edge of the cell join: `radius` plus slack for rounding.

    A point within `radius` of another has coordinates within `radius` of
    the other's, so a slack relative to the largest coordinate of `points`
    covers the rounding in the distances and in floor(x / edge). Non-finite
    coordinates raise ValueError ("<what> coordinates must be finite").
    """
    low, high = float(points.min(initial=0.0)), float(points.max(initial=0.0))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("%s coordinates must be finite" % what)
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


class _CellBuffers:
    """Scratch arrays for the grid cells of up to _CELL_CHUNK points."""

    def __init__(self) -> None:
        self.scaled = np.empty((_CELL_CHUNK, 3))
        self.cells = np.empty((_CELL_CHUNK, 3), dtype=np.int64)
        self.tmp = np.empty(_CELL_CHUNK, dtype=np.int64)

    def keys(self, chunk: np.ndarray, edge: float, what: str, out: np.ndarray) -> np.ndarray:
        """The packed keys of the cells floor(x / edge) of `chunk`'s points, in `out`.

        Negative coordinates get cells of the same width; a point too far
        out for an int64 cell gets an arbitrary key (callers ignore numpy's
        invalid-cast warning). Non-finite coordinates raise ValueError.
        """
        n = len(chunk)
        scaled = self.scaled[:n]
        np.divide(chunk, edge, out=scaled)
        if not np.isfinite(scaled).all():
            raise ValueError("%s coordinates must be finite" % what)
        np.floor(scaled, out=scaled)
        np.copyto(self.cells[:n], scaled, casting="unsafe")
        return _cell_keys(self.cells[:n], out, self.tmp[:n])


class _CellIndex(NamedTuple):
    """The 27 grid cells around each incident of a batch, by bucket of table slots."""

    marked: np.ndarray   # bool per slot: some incident's cell has it
    marks: np.ndarray    # the incident row of each (cell, incident) mark, by bucket
    buckets: np.ndarray  # the marks of the slots b << _BUCKET_LOG2 up to
    #                      (b + 1) << _BUCKET_LOG2 are marks[buckets[b]:buckets[b + 1]]


def _index_cells(incidents: np.ndarray, edge: float) -> _CellIndex:
    """The _CellIndex of one batch of incidents on the grid of cell edge `edge`."""
    keys = _CellBuffers().keys(incidents, edge, "incident", np.empty(len(incidents), np.int64))
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
        # survivor i meets the count[i] marks from first[i] on
        slots >>= _BUCKET_LOG2
        first = index.buckets.take(slots)
        count = index.buckets.take(slots + 1)
        count -= first
        owner, pair = _runs(first, count)
        inc = index.marks.take(pair)
        diff = points.take(owner, axis=0)
        diff -= incidents.take(inc, axis=0)
        diff *= diff
        dist = diff[:, 0] + diff[:, 1]
        dist += diff[:, 2]
        near[inc[dist <= bound]] = True

    def join_span(start: int, stop: int) -> None:
        near = np.zeros(len(incidents), dtype=bool)
        buffers = _CellBuffers()
        keys = np.empty(_CELL_CHUNK, dtype=np.int64)
        keep = np.empty(_CELL_CHUNK, dtype=bool)
        points: List[np.ndarray] = []
        slots: List[np.ndarray] = []
        # numpy error state is per thread, so each span sets its own
        with np.errstate(invalid="ignore"):
            for lo in range(start, stop, _CELL_CHUNK):
                chunk = field[lo:min(lo + _CELL_CHUNK, stop)]
                n = len(chunk)
                slot = _slots(buffers.keys(chunk, edge, "sensor", keys[:n]))
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
