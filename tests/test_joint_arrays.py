"""The array-backed joint counts against the dict path, and what they hold in memory."""
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homleap as hl
import dictjoint


def same(joint, reference: dict):
    """Keys, key order, values and value types all equal (repr tells 0 from 0.0)."""
    assert repr(list(joint.entries.items())) == repr(list(reference.items()))


def same_marginal(joint, reference: dict):
    assert repr(list(hl.delta_marginal(joint).items())) == repr(
        list(dictjoint.delta_marginal(reference).items())
    )


def retained_bytes(build):
    """Bytes still allocated after build() returns, with its result alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


class TestMatchesDictPath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(0, 40),
        st.integers(0, 40),
        st.floats(0.5, 1),
        st.floats(0.5, 1),
        st.floats(0, 1, exclude_min=True),
        st.floats(0, 1, exclude_min=True, exclude_max=True),
    )
    def test_float_channels(self, cap_k, cap_l, eta_a, eta_b, eff, r):
        bs = hl.BeamSplitter(r)
        src_a, src_b = hl.MixedFockSource(cap_k, eta_a), hl.MixedFockSource(cap_l, eta_b)
        mixed = hl.mixed_distribution(src_a, src_b, bs)
        mixed_ref = dictjoint.mixed_distribution(src_a, src_b, bs, hl.FLOAT)
        expansion = hl.amplitude_expansion(cap_k, cap_l, bs)
        expansion_ref = dictjoint.amplitude_expansion(cap_k, cap_l, bs, hl.FLOAT)
        for joint, ref in ((mixed, mixed_ref), (expansion, expansion_ref)):
            same(joint, ref)
            same_marginal(joint, ref)
            lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=eff))
            lossy_ref = dictjoint.apply_detector_loss(ref, eff)
            same(lossy, lossy_ref)
            same_marginal(lossy, lossy_ref)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.fractions(Fraction(1, 2), 1, max_denominator=20),
        st.fractions(Fraction(1, 2), 1, max_denominator=20),
        st.fractions(0, 1, max_denominator=20).filter(bool),
        st.fractions(0, 1, max_denominator=20).filter(lambda r: 0 < r < 1),
        st.booleans(),
    )
    def test_exact_channels(self, cap_k, cap_l, eta_a, eta_b, eff, r, float_eff):
        # a float efficiency on an exact joint makes a float result
        eff = float(eff) if float_eff else eff
        bs = hl.BeamSplitter.exact(r)
        src_a, src_b = hl.MixedFockSource(cap_k, eta_a), hl.MixedFockSource(cap_l, eta_b)
        mixed = hl.mixed_distribution(src_a, src_b, bs, hl.RATIONAL)
        mixed_ref = dictjoint.mixed_distribution(src_a, src_b, bs, hl.RATIONAL)
        expansion = hl.amplitude_expansion(cap_k, cap_l, bs, hl.RATIONAL)
        expansion_ref = dictjoint.amplitude_expansion(cap_k, cap_l, bs, hl.RATIONAL)
        for joint, ref in ((mixed, mixed_ref), (expansion, expansion_ref)):
            same(joint, ref)
            same_marginal(joint, ref)
            lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=eff))
            lossy_ref = dictjoint.apply_detector_loss(ref, eff)
            same(lossy, lossy_ref)
            same_marginal(lossy, lossy_ref)

    def test_marginal_does_not_depend_on_entry_order(self):
        joint = hl.apply_detector_loss(
            hl.amplitude_expansion(9, 7, hl.BeamSplitter(0.37)), hl.Detector(efficiency=0.61)
        )
        entries = list(joint.entries.items())
        random.Random(5).shuffle(entries)
        shuffled = hl.JointCountDistribution(dict(entries))
        same_marginal(shuffled, dict(entries))
        assert hl.delta_marginal(shuffled) == hl.delta_marginal(joint)

    def test_marginal_bins_far_apart(self):
        joint = hl.JointCountDistribution({(2**62, 0): 0.5, (0, 2**62): 0.5})
        assert hl.delta_marginal(joint) == {-(2**62): 0.5, 2**62: 0.5}


class TestMemory:
    def test_mixed_joint_is_three_arrays_until_entries_are_read(self):
        def build():
            src = hl.MixedFockSource(200, 0.9)
            return hl.mixed_distribution(src, hl.MixedFockSource(200, 0.8), hl.BeamSplitter(0.5))

        build()  # fill the column cache first
        retained, joint = retained_bytes(build)
        assert joint.probs.size == 201 * 401
        assert retained < 3_000_000
        with_entries, _ = retained_bytes(lambda: joint.entries)
        assert with_entries > retained

    def test_lossless_expansion_stays_linear(self):
        total = 100_000

        def build():
            return hl.amplitude_expansion(total // 2, total // 2, hl.BeamSplitter(0.3))

        build()
        retained, joint = retained_bytes(build)
        assert joint.probs.size == total + 1
        assert retained < 40 * total  # three 8-byte arrays; a dict needs over 100 bytes an entry

    def test_entries_built_once(self):
        joint = hl.amplitude_expansion(3, 2, hl.BeamSplitter(0.4))
        assert joint.entries is joint.entries


class TestValueSemantics:
    def test_equal_in_any_entry_order(self):
        a = hl.JointCountDistribution({(1, 0): 0.25, (0, 1): 0.5, (0, 0): 0.25})
        b = hl.JointCountDistribution({(0, 0): 0.25, (1, 0): 0.25, (0, 1): 0.5})
        assert a == b
        assert a != hl.JointCountDistribution({(1, 0): 0.5, (0, 1): 0.5})
        assert a == hl.JointCountDistribution.from_arrays([1, 0, 0], [0, 1, 0], [0.25, 0.5, 0.25])

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(hl.JointCountDistribution({(1, 0): 1.0}))

    def test_frozen(self):
        joint = hl.amplitude_expansion(2, 1, hl.BeamSplitter(0.2))
        with pytest.raises(ValueError):
            joint.probs[0] = 1.0
        with pytest.raises(AttributeError):
            joint.ps = np.zeros(4, dtype=int)

    def test_from_arrays_keeps_the_callers_arrays(self):
        ps, qs, probs = np.array([1, 0]), np.array([0, 1]), np.array([0.5, 0.5])
        hl.JointCountDistribution.from_arrays(ps, qs, probs)
        assert ps.flags.writeable and probs.flags.writeable

    @pytest.mark.parametrize(
        "ps,qs,probs",
        [
            ([1, -1], [0, 1], [0.5, 0.5]),
            ([1.0, 0.0], [0, 1], [0.5, 0.5]),
            ([1, 0], [0], [0.5, 0.5]),
            ([[1, 0]], [[0, 1]], [[0.5, 0.5]]),
            (np.array([2**63, 0], dtype=np.uint64), [0, 1], [0.5, 0.5]),
        ],
        ids=["negative", "float", "short", "two_dimensional", "beyond_int64"],
    )
    def test_from_arrays_rejects_bad_counts(self, ps, qs, probs):
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution.from_arrays(ps, qs, probs)

    @pytest.mark.parametrize("mode", [hl.FLOAT, hl.RATIONAL], ids=["float", "exact"])
    @pytest.mark.parametrize("read_entries", [False, True], ids=["fresh", "entries_read"])
    def test_pickle_round_trip(self, mode, read_entries):
        joint = hl.amplitude_expansion(2, 1, hl.BeamSplitter.exact("1/5"), mode)
        if read_entries:
            assert joint.entries  # caches the read-only mapping on the instance
        again = pickle.loads(pickle.dumps(joint))
        assert again == joint and again.probs.dtype == joint.probs.dtype
        assert not any(array.flags.writeable for array in (again.ps, again.qs, again.probs))

    def test_from_arrays_checks_probabilities(self):
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution.from_arrays([1, 0], [0, 1], [0.5, 0.4])
        joint = hl.JointCountDistribution.from_arrays([1, 0], [0, 1], [1.0, 1e-320])
        assert dict(joint.entries) == {(1, 0): 1.0, (0, 1): 0.0}
