"""Domain model tests: parameters, tensors, measurements."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobft.model import (
    GroundTruth,
    Measurement,
    NetworkParams,
    ResourceBlock,
    UsageTensor,
    binarize,
    max_deviation,
    observe,
    tensor_diff,
)


def make_params(n=4, f=1, eps=0.05):
    return NetworkParams(n, f, eps, zeta=0.1, alpha=0.5, rssi_threshold=0.5)


class TestNetworkParams:
    def test_quorum_is_two_thirds_supermajority(self):
        assert make_params(4, 1).quorum == 3
        assert make_params(7, 2).quorum == 5
        assert make_params(10, 3).quorum == 7

    def test_rejects_too_many_faults(self):
        with pytest.raises(ValueError):
            make_params(4, 2)
        with pytest.raises(ValueError):
            make_params(3, 1)

    def test_boundary_sizes_accepted(self):
        # exactly N = 3f + 1
        for n, f in [(4, 1), (7, 2), (10, 3), (1, 0)]:
            assert make_params(n, f).max_faulty == f

    def test_operator_ids_are_one_based(self):
        assert list(make_params(4, 1).operator_ids()) == [1, 2, 3, 4]

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            make_params(4, 1, eps=-0.1)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            NetworkParams(4, 1, 0.05, zeta=0.0, alpha=0.5, rssi_threshold=0.5)
        with pytest.raises(ValueError):
            NetworkParams(4, 1, 0.05, zeta=0.1, alpha=0.0, rssi_threshold=0.5)


class TestUsageTensor:
    def test_absent_key_reads_zero(self):
        t = UsageTensor(0, (2, 2, 4))
        assert t.get((1, 1, 3)) == 0.0

    def test_setting_zero_drops_the_key(self):
        t = UsageTensor(0, (2, 2, 4))
        t.set((0, 0, 0), 1.5)
        t.set((0, 0, 0), 0.0)
        assert (0, 0, 0) not in t.entries
        assert t.get((0, 0, 0)) == 0.0

    def test_constructor_normalises_zero_entries(self):
        t = UsageTensor(0, (2, 2, 4), {(0, 0, 0): 0.0, (1, 0, 1): 2.0})
        assert list(t.entries) == [(1, 0, 1)]

    def test_out_of_range_key_rejected(self):
        t = UsageTensor(0, (2, 2, 4))
        with pytest.raises(KeyError):
            t.set((2, 0, 0), 1.0)
        with pytest.raises(KeyError):
            t.get((0, -1, 0))

    def test_canonical_bytes_layout(self):
        t = UsageTensor(3, (2, 2, 4))
        t.set((1, 0, 2), 0.25)
        t.set((0, 1, 0), 1.0)
        assert t.canonical_bytes() == (
            b"period=3 dims=2,2,4\n"
            b"0,1,0,1.0\n"
            b"1,0,2,0.25\n"
        )

    def test_canonical_roundtrip(self):
        t = UsageTensor(7, (3, 2, 4))
        t.set((2, 1, 3), 0.8199079698355657)
        t.set((0, 0, 0), -1.5)
        back = UsageTensor.from_canonical(t.canonical_bytes())
        assert back.period == t.period
        assert back.dims == t.dims
        assert back.entries == t.entries
        assert back.canonical_bytes() == t.canonical_bytes()

    @pytest.mark.parametrize("data", [
        b"",
        b"\n\n",
        b"\xff",
        b"dims=1,1,4\n",
        b"period=x dims=1,1,4\n",
        b"period=0\n",
        b"period=0 dims=1,4\n",
        b"period=0 dims=1,1,4\n0,0,0\n",
        b"period=0 dims=1,1,4\n0,0,a,1.0\n",
        b"period=0 dims=1,1,4\n0,0,9,1.0\n",  # key outside dims
    ])
    def test_malformed_canonical_raises_value_error(self, data):
        with pytest.raises(ValueError):
            UsageTensor.from_canonical(data)

    @given(st.text(alphabet="period=dims 0123456789,.-e\n", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_from_canonical_raises_only_value_error(self, text):
        try:
            UsageTensor.from_canonical(text.encode("ascii"))
        except ValueError:
            pass

    def test_copy_is_independent(self):
        t = UsageTensor(0, (1, 1, 4))
        t.set((0, 0, 1), 2.0)
        c = t.copy()
        c.set((0, 0, 1), 3.0)
        assert t.get((0, 0, 1)) == 2.0

    @given(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 3)),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        max_size=8,
    ))
    @settings(max_examples=200, deadline=None)
    def test_canonical_roundtrip_property(self, entries):
        t = UsageTensor(1, (3, 2, 4), dict(entries))
        back = UsageTensor.from_canonical(t.canonical_bytes())
        assert back.entries == t.entries


class TestTensorDiff:
    def test_diff_over_key_union(self):
        a = UsageTensor(0, (2, 1, 4), {(0, 0, 0): 1.0, (1, 0, 1): 2.0})
        b = UsageTensor(0, (2, 1, 4), {(1, 0, 1): 2.5, (1, 0, 2): 4.0})
        d = tensor_diff(a, b)
        assert d == {
            (0, 0, 0): (1.0, 0.0),
            (1, 0, 1): (2.0, 2.5),
            (1, 0, 2): (0.0, 4.0),
        }

    def test_identical_tensors_have_no_diff(self):
        a = UsageTensor(0, (1, 1, 4), {(0, 0, 3): 9.0})
        assert tensor_diff(a, a.copy()) == {}
        assert max_deviation(a, a.copy()) == 0.0

    def test_max_deviation(self):
        a = UsageTensor(0, (2, 1, 4), {(0, 0, 0): 1.0})
        b = UsageTensor(0, (2, 1, 4), {(0, 0, 0): 1.2, (1, 0, 0): -0.5})
        assert max_deviation(a, b) == pytest.approx(0.5)

    def test_mismatched_shapes_rejected(self):
        a = UsageTensor(0, (2, 1, 4))
        with pytest.raises(ValueError):
            tensor_diff(a, UsageTensor(1, (2, 1, 4)))
        with pytest.raises(ValueError):
            tensor_diff(a, UsageTensor(0, (2, 2, 4)))


class TestObserve:
    def _truth(self, value=0.7):
        return GroundTruth(ResourceBlock(0, 0, 0), 1, value)

    def test_zero_noise_is_exact(self):
        m = observe(self._truth(0.7), 0.0, seed=1)
        assert m.value == 0.7
        assert m.error_bound == 0.0

    def test_noise_within_open_interval(self):
        eps = 0.05
        for seed in range(2000):
            m = observe(self._truth(0.7), eps, seed)
            assert abs(m.value - 0.7) < eps

    def test_deterministic_per_seed(self):
        a = observe(self._truth(), 0.05, seed=42)
        b = observe(self._truth(), 0.05, seed=42)
        c = observe(self._truth(), 0.05, seed=43)
        assert a.value == b.value
        assert a.value != c.value

    def test_noise_mean_is_centred(self):
        # uniform noise on (-eps, eps) has mean 0; Monte Carlo at 3 sigma.
        # Seeds are hashed apart (consecutive integer seeds would give the
        # generator correlated first draws), matching how callers derive them.
        from leobft.auth import derive_seed

        eps = 0.05
        n = 20000
        total = sum(
            observe(self._truth(0.0), eps, derive_seed(0, "mc", i)).value
            for i in range(n)
        )
        sigma = eps / math.sqrt(3 * n)
        assert abs(total / n) < 3 * sigma

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            observe(self._truth(), -0.01, seed=0)


class TestBinarize:
    def _measurement(self, value):
        return Measurement(ResourceBlock(0, 0, 0), 1, value, 0.05)

    def test_strictly_above_threshold_is_one(self):
        assert binarize(self._measurement(0.51), 0.5) == 1
        assert binarize(self._measurement(0.5), 0.5) == 0
        assert binarize(self._measurement(0.49), 0.5) == 0

    def test_extreme_noise_cannot_flip_a_clear_signal(self):
        # signal at threshold + eps stays 1 under any noise magnitude < eps
        eps = 0.05
        threshold = 0.5
        truth = GroundTruth(ResourceBlock(0, 0, 0), 1, threshold + eps)
        for seed in range(500):
            m = observe(truth, eps, seed)
            assert binarize(m, threshold) == 1

    def test_resource_block_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            ResourceBlock(-1, 0, 0)
