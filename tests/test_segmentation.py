import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import strategies
from trendsax.segmentation import SCHEMES, Segmentation, segment


class TestSchemePatterns:
    """The 16-point, 4-block layouts each scheme is defined by."""

    def test_classic(self):
        assert segment("classic", 16, 4).blocks.tolist() == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15],
        ]

    def test_overlap(self):
        assert segment("overlap", 16, 4).blocks.tolist() == [
            [0, 1, 2, 4], [3, 5, 6, 8], [7, 9, 10, 12], [11, 13, 14, 15],
        ]

    def test_intertwine(self):
        assert segment("intertwine", 16, 4).blocks.tolist() == [
            [0, 2, 4, 6], [1, 3, 5, 7], [8, 10, 12, 14], [9, 11, 13, 15],
        ]

    def test_split(self):
        assert segment("split", 16, 4).blocks.tolist() == [
            [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15],
        ]

    def test_classic_halves(self):
        assert segment("classic", 8, 2).blocks.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_singleton_blocks_identical_across_schemes(self):
        reference = segment("classic", 6, 6).blocks
        for scheme in SCHEMES:
            np.testing.assert_array_equal(segment(scheme, 6, 6).blocks, reference)

    def test_single_block_identical_across_schemes(self):
        for scheme in SCHEMES:
            assert segment(scheme, 8, 1).blocks.tolist() == [[0, 1, 2, 3, 4, 5, 6, 7]]

    def test_odd_block_count_falls_back_to_classic_tail(self):
        assert segment("intertwine", 12, 3).blocks.tolist() == [
            [0, 2, 4, 6], [1, 3, 5, 7], [8, 9, 10, 11],
        ]
        assert segment("split", 12, 3).blocks.tolist() == [
            [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 10, 11],
        ]

    def test_split_odd_width_shares_final_run(self):
        # w=3: runs (0,1),(2,3),(4,5); the last run is split one index each
        assert segment("split", 6, 2).blocks.tolist() == [[0, 1, 4], [2, 3, 5]]

    def test_overlap_width_two(self):
        # swaps across both interior boundaries of three 2-wide blocks
        assert segment("overlap", 6, 3).blocks.tolist() == [[0, 2], [1, 4], [3, 5]]


class TestPolicies:
    def test_truncate_drops_trailing_indices(self):
        seg = segment("classic", 10, 3)
        assert seg.n_effective == 9
        assert seg.w == 3
        assert seg.blocks.max() == 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            segment("diagonal", 16, 4)
        with pytest.raises(ValueError):
            segment("classic", 16, 0)
        with pytest.raises(ValueError):
            segment("classic", 4, 5)

    @pytest.mark.parametrize("n, m", [(10.5, 2), (10, 2.5)])
    def test_rejects_a_fractional_length_or_block_count(self, n, m):
        with pytest.raises(ValueError, match="n and m must be integral"):
            segment("classic", n, m)

    def test_integral_floats_give_the_int_segmentation(self):
        seg = segment("classic", 10.0, np.int64(2))
        assert (type(seg.n_effective), type(seg.m)) == (int, int)
        assert seg.blocks.tolist() == segment("classic", 10, 2).blocks.tolist()


class TestSegmentationType:
    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match="do not partition"):
            Segmentation("classic", np.array([[0, 1], [1, 2]]))
        with pytest.raises(ValueError, match="do not partition"):
            Segmentation("classic", np.array([[0, 1], [2, 4]]))
        for blocks in ([0, 1, 2, 3], np.empty((0, 2)), np.empty((2, 0)), np.arange(4).reshape(1, 2, 2)):
            with pytest.raises(ValueError, match="blocks must be a non-empty"):
                Segmentation("classic", blocks)
        with pytest.raises(ValueError):
            Segmentation("waves", np.array([[0, 1], [2, 3]]))

    def test_sizes_come_from_the_blocks(self):
        seg = Segmentation("classic", np.array([[0, 1, 2, 3]]))  # one block of four
        assert (seg.m, seg.w, seg.n_effective) == (1, 4, 4)
        assert [type(seg.m), type(seg.n_effective)] == [int, int]

    def test_blocks_are_immutable(self):
        seg = segment("split", 16, 4)
        with pytest.raises(ValueError):
            seg.blocks[0, 0] = 9

    def test_rows_canonicalized_ascending(self):
        seg = Segmentation("classic", np.array([[1, 0], [3, 2]]))
        assert seg.blocks.tolist() == [[0, 1], [2, 3]]


def test_matches_reference_construction_on_grid():
    for scheme in SCHEMES:
        for n in range(1, 65):
            for m in range(1, n + 1):
                seg = segment(scheme, n, m)
                expected = [sorted(b) for b in oracles.segment_blocks(scheme, n, m)]
                assert seg.blocks.tolist() == expected, (scheme, n, m)
                assert (seg.m, seg.w, seg.n_effective) == (m, n // m, m * (n // m)), (scheme, n, m)


# ----------------------------------------------------------------- properties


@pytest.mark.properties
@given(strategies.seg_configs())
def test_blocks_partition_index_range(config):
    scheme, n, m = config
    seg = segment(scheme, n, m)
    w = n // m
    assert seg.blocks.shape == (m, w)
    assert seg.n_effective == m * w
    np.testing.assert_array_equal(
        np.sort(seg.blocks, axis=None), np.arange(seg.n_effective)
    )


def _swap_boundaries(blocks):
    swapped = blocks.copy()
    swapped[:-1, -1], swapped[1:, 0] = blocks[1:, 0], blocks[:-1, -1]
    return swapped


@pytest.mark.properties
@given(st.integers(1, 32), st.integers(2, 12))
def test_boundary_swap_is_involution(m, w):
    # w >= 2 keeps each block's first and last cells distinct; the overlap
    # scheme falls back to classic at w == 1 and never swaps there.  Sorted
    # overlap rows keep the swapped-in indices at the row ends, so one swap
    # maps classic to overlap and a second maps it back.
    classic = segment("classic", m * w, m).blocks
    overlap = segment("overlap", m * w, m).blocks
    np.testing.assert_array_equal(_swap_boundaries(classic), overlap)
    np.testing.assert_array_equal(_swap_boundaries(overlap), classic)


@pytest.mark.properties
@given(st.integers(1, 48))
def test_unit_width_blocks_equal_across_schemes(n):
    reference = segment("classic", n, n).blocks
    for scheme in SCHEMES:
        np.testing.assert_array_equal(segment(scheme, n, n).blocks, reference)


@pytest.mark.properties
@given(strategies.seg_configs())
def test_sorted_concatenation_is_identity_permutation(config):
    scheme, n, m = config
    seg = segment(scheme, n, m)
    flattened = np.concatenate([np.sort(block) for block in seg.blocks])
    assert sorted(flattened.tolist()) == list(range(seg.n_effective))


@pytest.mark.properties
@given(st.sampled_from(("intertwine", "split")), st.integers(1, 24))
def test_paired_schemes_stay_within_their_span(scheme, w):
    seg = segment(scheme, 2 * w, 2)
    np.testing.assert_array_equal(
        np.sort(seg.blocks, axis=None), np.arange(2 * w)
    )
    assert seg.blocks.min() == 0
    assert seg.blocks.max() == 2 * w - 1


@pytest.mark.properties
@given(strategies.seg_configs())
def test_matches_reference_construction(config):
    scheme, n, m = config
    got = segment(scheme, n, m).blocks.tolist()
    assert got == [sorted(b) for b in oracles.segment_blocks(scheme, n, m)]
