"""Domain model: network parameters, usage tensors and noisy readings.

Usage tensors are sparse maps from (region, subband, operator) to a float
usage value. Keys that are absent mean 0.0, and storing an exact 0.0 drops
the key, so two tensors with the same meaning always have the same canonical
byte form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

Key = Tuple[int, int, int]  # (region, subband, operator)

# Largest magnitude of a configured value: epsilon, an event truth or an
# adversary number. Every spread of honest and adversarial values, every
# value + offset and every sum the averaging function takes then stays finite.
MAX_MAGNITUDE = 1e100
# Most operators of one network: one exact period (2x2 tensor, f = (N-1)//3)
# under its costliest adversary, boundary-attacker, takes 17 s and 133 MB at
# N = 160 on one CPU, within the 23 s and 460 MB that N = 97 cost under
# random-values before the two-value relay rule; N = 176 takes 25 s.
MAX_OPERATORS = 160


def check_fault_bound(n_operators: int, max_faulty: int) -> None:
    """Raise ValueError unless N >= 1, f >= 0 and N >= 3f + 1."""
    if n_operators < 1:
        raise ValueError("need at least one operator")
    if max_faulty < 0:
        raise ValueError("max_faulty must be >= 0")
    if n_operators < 3 * max_faulty + 1:
        raise ValueError(
            "n_operators=%d cannot tolerate f=%d (need N >= 3f+1)"
            % (n_operators, max_faulty)
        )


def quorum(n_operators: int, max_faulty: int) -> int:
    """floor((N + f) / 2) + 1: the smallest size at which any two quorums of
    N operators share f + 1, so at least one honest; 2f + 1 at N = 3f + 1."""
    return (n_operators + max_faulty) // 2 + 1


@dataclass(frozen=True)
class NetworkParams:
    """Shared configuration of one consensus network.

    n_operators: total number of operators N, at most MAX_OPERATORS.
    max_faulty:  bound f on Byzantine operators; needs N >= 3f + 1.
    epsilon:     measurement noise half-width (noise is uniform on (-eps, eps)).
    zeta:        target spread for approximate agreement.
    alpha:       per-element tolerance for approximate ledger votes.
    rssi_threshold: decision threshold for the binary usage profile.
    """

    n_operators: int
    max_faulty: int
    epsilon: float
    zeta: float
    alpha: float
    rssi_threshold: float

    def __post_init__(self) -> None:
        check_fault_bound(self.n_operators, self.max_faulty)
        # not in check_fault_bound: an audited ledger export may name any N
        if self.n_operators > MAX_OPERATORS:
            raise ValueError("n_operators=%d is more than %d" % (self.n_operators, MAX_OPERATORS))
        for name in ("epsilon", "zeta", "alpha", "rssi_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.epsilon > MAX_MAGNITUDE:
            raise ValueError("epsilon must be at most %g" % MAX_MAGNITUDE)
        if self.zeta <= 0:
            raise ValueError("zeta must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    @property
    def quorum(self) -> int:
        """Supermajority size of this network, model.quorum(N, f)."""
        return quorum(self.n_operators, self.max_faulty)

    def operator_ids(self) -> range:
        return range(1, self.n_operators + 1)


@dataclass
class UsageTensor:
    """Sparse usage tensor for one period.

    dims = (regions, subbands, operators); every key must fall inside dims.
    """

    period: int
    dims: Tuple[int, int, int]
    entries: Dict[Key, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in list(self.entries.items()):
            self._check_key(key)
            self.entries[key] = float(value)
            if self.entries[key] == 0.0:
                del self.entries[key]

    def _check_key(self, key: Key) -> None:
        r, s, o = key
        dr, ds, do = self.dims
        if not (0 <= r < dr and 0 <= s < ds and 0 <= o < do):
            raise KeyError("key %r outside tensor dims %r" % (key, self.dims))

    def set(self, key: Key, value: float) -> None:
        self._check_key(key)
        value = float(value)
        if value == 0.0:
            # default value: absent key already means 0.0
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def get(self, key: Key) -> float:
        self._check_key(key)
        return self.entries.get(key, 0.0)

    def copy(self) -> "UsageTensor":
        return UsageTensor(self.period, self.dims, dict(self.entries))

    def canonical_bytes(self) -> bytes:
        """Byte-exact canonical form used for hashing, votes and exports.

        One header line with the period and dims, then one line per non-zero
        entry in sorted key order. Float values use repr(), which round-trips
        exactly.
        """
        lines = ["period=%d dims=%d,%d,%d" % (self.period, *self.dims)]
        for key in sorted(self.entries):
            lines.append("%d,%d,%d,%s" % (*key, repr(self.entries[key])))
        return ("\n".join(lines) + "\n").encode("ascii")

    @classmethod
    def from_canonical(cls, data: bytes) -> "UsageTensor":
        """Parse canonical bytes; any malformed input raises ValueError."""
        lines = [ln for ln in data.decode("ascii").split("\n") if ln]
        if not lines or not lines[0].startswith("period="):
            raise ValueError("bad tensor header: %r" % (lines[:1],))
        period_part, dims_part = lines[0].split(" dims=")
        period = int(period_part[len("period="):])
        dims = tuple(int(x) for x in dims_part.split(","))
        if len(dims) != 3:
            raise ValueError("bad tensor dims: %r" % lines[0])
        entries: Dict[Key, float] = {}
        for line in lines[1:]:
            r, s, o, v = line.split(",")
            entries[(int(r), int(s), int(o))] = float(v)
        try:
            return cls(period, dims, entries)  # type: ignore[arg-type]
        except KeyError as err:
            raise ValueError(str(err)) from err


def observe(truth: float, epsilon: float, seed: int) -> float:
    """One noisy reading of a ground truth value.

    Noise is uniform on the open interval (-epsilon, epsilon) and is fully
    determined by the seed. epsilon == 0 yields the exact value.
    """
    if not 0 <= epsilon < math.inf:  # an infinite epsilon would never draw
        raise ValueError("epsilon must be finite and >= 0")
    if epsilon == 0:
        noise = 0.0
    else:
        rng = random.Random(seed)
        noise = epsilon * (2.0 * rng.random() - 1.0)
        while abs(noise) >= epsilon:  # keep the interval open at both ends
            noise = epsilon * (2.0 * rng.random() - 1.0)
    return truth + noise


def binarize(value: float, rssi_threshold: float) -> int:
    """Map a reading to a usage bit: 1 iff strictly above the threshold."""
    return 1 if value > rssi_threshold else 0


def tensor_diff(a: UsageTensor, b: UsageTensor) -> Dict[Key, Tuple[float, float]]:
    """All keys where two tensors disagree, with both values (absent = 0.0).

    Tensors must describe the same period and dims.
    """
    if a.period != b.period:
        raise ValueError("period mismatch: %d vs %d" % (a.period, b.period))
    if a.dims != b.dims:
        raise ValueError("dims mismatch: %r vs %r" % (a.dims, b.dims))
    out: Dict[Key, Tuple[float, float]] = {}
    for key in sorted(set(a.entries) | set(b.entries)):
        va = a.entries.get(key, 0.0)
        vb = b.entries.get(key, 0.0)
        if va != vb:
            out[key] = (va, vb)
    return out


def max_deviation(a: UsageTensor, b: UsageTensor) -> float:
    """Largest element-wise absolute difference between two tensors."""
    worst = 0.0
    for _, (va, vb) in tensor_diff(a, b).items():
        worst = max(worst, abs(va - vb))
    return worst
