"""Edge-array clean-up and CSR construction."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import (
    build_csr,
    dedupe_edges,
    remove_self_loops,
    symmetrize_edges,
)


class TestRemoveSelfLoops:
    def test_removes_loops_only(self):
        src, dst, _ = remove_self_loops(np.array([0, 1, 2]), np.array([0, 2, 2]))
        assert src.tolist() == [1]
        assert dst.tolist() == [2]

    def test_carries_weights(self):
        _, _, w = remove_self_loops(
            np.array([0, 1]), np.array([0, 2]), np.array([9.0, 7.0])
        )
        assert w.tolist() == [7.0]


class TestDedupe:
    def test_removes_duplicates(self):
        src, dst, _ = dedupe_edges(np.array([1, 0, 1, 0]), np.array([2, 3, 2, 3]))
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 3), (1, 2)]

    def test_keeps_first_weight(self):
        src = np.array([0, 0])
        dst = np.array([1, 1])
        # After the stable sort the first occurrence in sorted order wins; both
        # entries have the same key so stability keeps input order.
        _, _, w = dedupe_edges(src, dst, np.array([5.0, 9.0]))
        assert w.tolist() == [5.0]

    def test_empty_input(self):
        src, dst, w = dedupe_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0 and w is None

    @staticmethod
    def _lexsort_reference(src, dst, weights):
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        return src[keep], dst[keep], (weights[order][keep] if weights is not None else None)

    def _assert_matches_reference(self, src, dst, weights=None):
        got = dedupe_edges(src, dst, weights)
        want = self._lexsort_reference(src, dst, weights)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_lexsort_reference(self, weighted):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 40, 2_000)
        dst = rng.integers(0, 40, 2_000)
        weights = rng.random(2_000) if weighted else None
        self._assert_matches_reference(src, dst, weights)

    def test_duplicates_with_differing_weights_keep_first(self):
        src = np.array([3, 1, 3, 1, 3, 2])
        dst = np.array([0, 2, 0, 2, 0, 2])
        weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        _, _, w = dedupe_edges(src, dst, weights)
        assert w.tolist() == [2.0, 6.0, 1.0]
        self._assert_matches_reference(src, dst, weights)

    def test_negative_ids(self):
        rng = np.random.default_rng(11)
        src = rng.integers(-50, 10, 1_000)
        dst = rng.integers(-5, 50, 1_000)
        self._assert_matches_reference(src, dst)
        self._assert_matches_reference(src, dst, rng.random(1_000))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_span_overflowing_fused_key(self, weighted):
        # span = 2**62 + 1, so span**2 does not fit in int64.
        src = np.array([2**62, -1, 2**62, 0, -1, 2**62], dtype=np.int64)
        dst = np.array([-1, 5, -1, 2**62, 5, 0], dtype=np.int64)
        weights = np.arange(6, dtype=np.float64) if weighted else None
        got_src, got_dst, _ = dedupe_edges(src, dst, weights)
        assert list(zip(got_src.tolist(), got_dst.tolist())) == [
            (-1, 5), (0, 2**62), (2**62, -1), (2**62, 0)
        ]
        self._assert_matches_reference(src, dst, weights)


class TestSymmetrize:
    def test_adds_reverse_edges(self):
        src, dst, _ = symmetrize_edges(np.array([0]), np.array([1]))
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0)]

    def test_doubles_weights(self):
        _, _, w = symmetrize_edges(np.array([0]), np.array([1]), np.array([4.0]))
        assert w.tolist() == [4.0, 4.0]


class TestBuildCSR:
    def test_basic_construction(self):
        g = build_csr(np.array([1, 0, 0]), np.array([2, 1, 2]))
        assert g.num_vertices == 3
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(1).tolist() == [2]

    def test_explicit_num_vertices(self):
        g = build_csr(np.array([0]), np.array([1]), num_vertices=10)
        assert g.num_vertices == 10
        assert g.degrees[9] == 0

    def test_num_vertices_inferred(self):
        g = build_csr(np.array([0]), np.array([7]))
        assert g.num_vertices == 8

    def test_endpoints_exceeding_num_vertices_rejected(self):
        with pytest.raises(GraphFormatError, match="exceed"):
            build_csr(np.array([0]), np.array([5]), num_vertices=3)

    def test_negative_endpoints_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            build_csr(np.array([-1]), np.array([0]), num_vertices=3)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(GraphFormatError, match="equal-length"):
            build_csr(np.array([0, 1]), np.array([0]))

    def test_weights_follow_edge_sort(self):
        g = build_csr(
            np.array([1, 0]), np.array([0, 1]), weights=np.array([10.0, 20.0])
        )
        # Vertex 0's edge carries 20.0, vertex 1's carries 10.0.
        assert g.edge_weights(0).tolist() == [20.0]
        assert g.edge_weights(1).tolist() == [10.0]

    def test_full_cleanup_pipeline(self):
        # Self loop, duplicate and asymmetry all at once.
        g = build_csr(
            np.array([0, 0, 0, 1]),
            np.array([0, 1, 1, 0]),
            symmetrize=True,
            dedupe=True,
            drop_self_loops=True,
        )
        assert sorted(g.iter_edges()) == [(0, 1), (1, 0)]

    def test_empty_edges_build(self):
        g = build_csr(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), num_vertices=4
        )
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_sublists_are_contiguous_and_ordered_by_source(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 50, 500)
        dst = rng.integers(0, 50, 500)
        g = build_csr(src, dst, num_vertices=50)
        # Every edge of vertex v appears exactly degrees[v] times.
        counts = np.bincount(src, minlength=50)
        assert np.array_equal(g.degrees, counts)
