import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from pools import counted_submits, refuse_pool, two_cores
from vqround import errors, parallel, reparam
from vqround.hessian import residual_init
from vqround.quantize import compute_quant_params, inverse_rectified_sigmoid
from vqround.reparam import (
    Codebook,
    _nearest,
    _plusplus_seed,
    _seeding_draw,
    _weighted_draw,
    balanced_factors,
    fit_codebook,
    flatten_blocks,
    kmeans_fit,
    kronecker_approx,
    load_codebook,
    param_count,
    rearrange,
    save_codebook,
    svd_lowrank,
    vq_assign,
    vq_reconstruct,
    wcss,
)


class TestFlattenBlocks:
    def test_rows_as_blocks(self):
        A = np.arange(8.0).reshape(2, 4)
        blocks = flatten_blocks(A, 4)
        assert np.array_equal(blocks, A)

    def test_indivisible(self):
        with pytest.raises(errors.IndivisibleShape):
            flatten_blocks(np.zeros((2, 3)), 4)

    @pytest.mark.parametrize("d", [0, -4])
    def test_non_positive_block_length(self, d):
        with pytest.raises(errors.DomainError):
            flatten_blocks(np.zeros((4, 4)), d)

    def test_row_major_order(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        blocks = flatten_blocks(A, 2)
        assert np.array_equal(blocks, [[1.0, 2.0], [3.0, 4.0]])

    def test_roundtrip(self):
        A = np.random.default_rng(0).normal(size=(4, 6))
        cb = Codebook(centroids=flatten_blocks(A, 3), indices=np.arange(8), shape=A.shape)
        assert np.array_equal(vq_reconstruct(cb), A)


class TestKmeans:
    def test_k_equals_l_distinct_blocks_exact(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(6, 3))
        cb = kmeans_fit(blocks, k=6, iters=20, seed=0)
        assert wcss(blocks, cb.centroids, cb.indices) == pytest.approx(0.0, abs=1e-12)

    def test_k_one_is_mean(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(10, 2))
        cb = kmeans_fit(blocks, k=1, iters=20, seed=0)
        assert np.allclose(cb.centroids[0], blocks.mean(axis=0))

    def test_matches_brute_force_two_cluster_optimum(self):
        blocks = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        cb = kmeans_fit(blocks, k=2, iters=50, seed=0)

        # Oracle: enumerate every 2-partition of the four blocks.
        best = np.inf
        best_centroids = None
        for labels in itertools.product([0, 1], repeat=4):
            if len(set(labels)) < 2:
                continue
            labels = np.array(labels)
            cents = np.array([blocks[labels == c].mean(axis=0) for c in (0, 1)])
            obj = float(np.sum((blocks - cents[labels]) ** 2))
            if obj < best:
                best = obj
                best_centroids = cents
        assert best == pytest.approx(1.0)
        assert wcss(blocks, cb.centroids, cb.indices) == pytest.approx(best)
        got = sorted(map(tuple, cb.centroids.round(9)))
        want = sorted(map(tuple, best_centroids.round(9)))
        assert got == want

    def test_objective_non_increasing_in_iteration_budget(self):
        rng = np.random.default_rng(3)
        blocks = rng.normal(size=(40, 4))
        prev = np.inf
        for iters in range(1, 9):
            cb = kmeans_fit(blocks, k=5, iters=iters, seed=7)
            obj = wcss(blocks, cb.centroids, cb.indices)
            assert obj <= prev + 1e-9
            prev = obj

    def test_duplicate_blocks_stay_valid(self):
        # More clusters than distinct values forces empty-cell reseeding.
        blocks = np.repeat(np.array([[0.0], [1.0], [2.0]]), 4, axis=0)
        cb = kmeans_fit(blocks, k=3, iters=30, seed=0)
        assert wcss(blocks, cb.centroids, cb.indices) == pytest.approx(0.0, abs=1e-12)
        assert np.all((0 <= cb.indices) & (cb.indices < 3))

    def test_k_too_large(self):
        with pytest.raises(errors.KTooLarge):
            kmeans_fit(np.zeros((3, 2)), k=4)

    def test_rejects_non_finite_blocks(self):
        blocks = np.zeros((10, 2))
        blocks[3, 1] = np.inf
        with pytest.raises(errors.DomainError):
            kmeans_fit(blocks, k=2)

    def test_rejects_overflowing_distances(self):
        # Finite blocks whose squared distances overflow float64 used to
        # reach the seeding's draw and fail there with an IndexError.
        blocks = np.random.default_rng(0).normal(size=(64, 4)) * 1e200
        with pytest.raises(errors.DomainError, match="too large"):
            kmeans_fit(blocks, k=4)

    def test_rejects_overflowing_distance_sum(self):
        # Each squared distance is finite but their sum over the 2000 blocks
        # is not; the seeding's draw used to fail on it with an IndexError.
        blocks = np.random.default_rng(0).normal(size=(2000, 4)) * 3e152
        assert np.isfinite(8.0 * np.max(np.sum(blocks**2, axis=1)))
        with pytest.raises(errors.OutOfRange, match="too large"):
            kmeans_fit(blocks, k=8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(30, 3))
        a = kmeans_fit(blocks, k=4, iters=25, seed=11)
        b = kmeans_fit(blocks, k=4, iters=25, seed=11)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.indices, b.indices)


def oracle_seeding(blocks, k, rng):
    """The full-pass ++ seeding that the screened seeding must reproduce
    bit for bit."""
    L, d = blocks.shape
    centroids = np.empty((k, d))
    centroids[0] = blocks[int(rng.integers(L))]
    closest = np.sum((blocks - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        idx = int(rng.choice(L, p=closest / total)) if total > 0.0 else int(rng.integers(L))
        centroids[c] = blocks[idx]
        closest = np.minimum(closest, np.sum((blocks - centroids[c]) ** 2, axis=1))
    return centroids


def oracle_kmeans(blocks, k, iters, seed):
    """The full-pass ++ seeding and the cdist-based Lloyd loop that the
    screened seeding and the chunked assignment must reproduce bit for bit."""
    L, d = blocks.shape
    centroids = oracle_seeding(blocks, k, np.random.default_rng(seed))

    prev_assign = None
    for _ in range(iters):
        dists = cdist(blocks, centroids, "sqeuclidean")
        assign = np.argmin(dists, axis=1)
        own = dists[np.arange(L), assign]
        counts = np.bincount(assign, minlength=k)
        reseeded = False
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(own))
            centroids[c] = blocks[far]
            counts[assign[far]] -= 1
            assign[far] = c
            counts[c] = 1
            own[far] = 0.0
            reseeded = True
        if not reseeded and prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        sums = np.zeros((k, d))
        np.add.at(sums, assign, blocks)
        occupied = counts > 0
        centroids = centroids.copy()
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids, np.argmin(cdist(blocks, centroids, "sqeuclidean"), axis=1)


def residual_latent_blocks(n, d, seed):
    W = np.random.default_rng(seed).normal(size=(n, n))
    return flatten_blocks(inverse_rectified_sigmoid(residual_init(W, compute_quant_params(W, 3))), d)


RESIDUAL_BLOCKS = residual_latent_blocks(128, 8, 0)

ORACLE_CASES = {
    # (blocks, k, iters, seed)
    "residual-latent": (RESIDUAL_BLOCKS, 256, 3, 0),
    # The seeding's float32 screen must hold far from the origin and at
    # scales whose squares leave float32's range.
    "residual-latent-offset": (RESIDUAL_BLOCKS + 1e3, 256, 3, 0),
    "residual-latent-tiny": (RESIDUAL_BLOCKS * 1e-30, 256, 3, 0),
    "residual-latent-huge": (RESIDUAL_BLOCKS * 1e30, 256, 3, 0),
    # Two copies 2e3 apart: about the mean, every block's norm is ~1e3, so
    # the screen's float32 rounding is as large as the distances within a copy.
    "residual-latent-split": (
        RESIDUAL_BLOCKS + np.where(np.arange(len(RESIDUAL_BLOCKS)) % 2 == 0, 1e3, -1e3)[:, None],
        256, 3, 0),
    "residual-latent-converged": (residual_latent_blocks(64, 8, 1), 64, 100, 1),
    # 16 row chunks of the assignment and 32 of the seeding draw's locator.
    "residual-latent-256-k1024": (residual_latent_blocks(256, 8, 6), 1024, 2, 6),
    "duplicate-blocks": (np.repeat(np.random.default_rng(2).normal(size=(30, 4)), 7, axis=0), 40, 20, 2),
    "integer-lattice": (np.random.default_rng(3).integers(-2, 3, size=(3000, 3)).astype(float), 60, 15, 3),
    "binary-lattice": (np.random.default_rng(4).integers(0, 2, size=(2000, 8)).astype(float), 300, 10, 4),
    # Every point of a 32x32 grid three times over: integer distances, so
    # a new centre is often exactly as near as the old one.
    "dense-lattice": (np.random.default_rng(5).permutation(
        np.repeat(np.indices((32, 32)).reshape(2, -1).T.astype(float), 3, axis=0)), 500, 10, 5),
}


class TestKmeansOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_codebook_byte_identical(self, case):
        blocks, k, iters, seed = ORACLE_CASES[case]
        want_centroids, want_indices = oracle_kmeans(blocks, k, iters, seed)
        cb = kmeans_fit(blocks, k, iters=iters, seed=seed)
        assert cb.centroids.tobytes() == want_centroids.tobytes()
        assert np.array_equal(cb.indices, want_indices)


def _one_nonzero(n, at, value):
    w = [0.0] * n
    w[at] = value
    return w


# Weight vectors for the seeding's draw: exact zeros, subnormals and a
# range wide enough that small weights vanish once divided by the total.
DRAW_WEIGHTS = st.one_of(
    st.lists(
        st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e300)),
        min_size=1, max_size=40,
    ).filter(lambda w: sum(w) > 0.0),
    st.integers(1, 40).flatmap(
        lambda n: st.builds(_one_nonzero, st.just(n), st.integers(0, n - 1),
                            st.floats(5e-324, 1e300))
    ),
)


class _FixedUniform:
    """Stands in for a Generator whose next ``random()`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestWeightedDraw:
    @settings(max_examples=300, deadline=None)
    @given(DRAW_WEIGHTS, st.integers(0, 2**32 - 1))
    def test_matches_rng_choice(self, weights, seed):
        w = np.array(weights)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        cum = np.empty(w.size)
        for _ in range(3):
            assert _weighted_draw(w, w.sum(), ours.random(), cum) == theirs.choice(w.size, p=w / w.sum())
        assert ours.random() == theirs.random()

    def test_fix_up_at_rounding_boundaries(self):
        # With cum[-1] far from 1, u * cum[-1] and cum[i] / cum[-1] round
        # differently near each boundary, so searchsorted alone is off by
        # one; the fix-up must still give choice's index, the first i with
        # cum[i] / cum[-1] > u.
        w = np.random.default_rng(21).random(200)
        total = 0.6 * w.sum()
        cum = np.cumsum(w / total)
        cdf = cum / cum[-1]
        off_by_one = 0
        for q in cdf[:-1]:
            for u in (np.nextafter(q, 0.0), q, np.nextafter(q, 1.0)):
                want = int(np.searchsorted(cdf, u, side="right"))
                assert _weighted_draw(w, total, u, np.empty(w.size)) == want
                off_by_one += int(np.searchsorted(cum, u * cum[-1], side="right")) != want
        assert off_by_one > 0


# Lengths within one chunk of the draw's locator, at and around one to four
# chunk boundaries, and beyond, most not a multiple of its chunk.
DRAW_LENGTHS = [1, 37, 255, 256, 257, 513, 1023, 1024, 1025, 2179]


@st.composite
def seeding_weights(draw):
    """Weights of a seeding draw: exact zeros, subnormals and magnitudes
    from 1e-300 to 1e300 mixed at random, a single nonzero weight, or all
    zeros."""
    L = draw(st.sampled_from(DRAW_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "uniform", "one", "zeros"]))
    if kind == "mixed":
        share = rng.dirichlet(np.ones(4))
        pick = rng.choice(4, size=L, p=share)
        return np.choose(pick, [np.zeros(L), rng.uniform(5e-324, 2.2e-308, L),
                                10.0 ** rng.uniform(-300, 300, L), rng.random(L)])
    if kind == "uniform":
        return rng.random(L) * (rng.random(L) < rng.random())
    w = np.zeros(L)
    if kind == "one":
        w[rng.integers(L)] = 10.0 ** rng.uniform(-323, 300)
    return w


def chunk_sums(w):
    """The chunk sums the seeding keeps for its draw, by a full reduction."""
    return np.add.reduceat(w, np.arange(0, w.size, reparam._DRAW_CHUNK))


class TestSeedingDraw:
    @settings(max_examples=300, deadline=None)
    @given(seeding_weights(), st.integers(0, 2**32 - 1))
    def test_matches_rng_choice(self, w, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        cum = np.empty(w.size)
        for _ in range(3):
            total = w.sum()
            want = int(theirs.choice(w.size, p=w / total)) if total > 0.0 else int(theirs.integers(w.size))
            assert _seeding_draw(w, chunk_sums(w), ours, cum) == want
        assert ours.random() == theirs.random()

    def test_boundary_u_takes_the_exact_fallback(self, monkeypatch):
        # A u on or one ulp beside a boundary of choice's running sum lies
        # within the locator's slack, so the exact draw must settle it and
        # still give choice's index; a u between boundaries never needs it.
        w = np.random.default_rng(23).random(3077)
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        calls = []

        def counted(*args):
            calls.append(args[2])
            return _weighted_draw(*args)

        monkeypatch.setattr(reparam, "_weighted_draw", counted)
        cum, sums = np.empty(w.size), chunk_sums(w)
        edges = cdf[:-1:29]
        boundary = [u for q in edges for u in (np.nextafter(q, 0.0), q, np.nextafter(q, 1.0))]
        for u in boundary:
            want = int(np.searchsorted(cdf, u, side="right"))
            assert _seeding_draw(w, sums, _FixedUniform(u), cum) == want
        assert calls == boundary
        for u in (edges[1:] + edges[:-1]) / 2:
            assert _seeding_draw(w, sums, _FixedUniform(u), cum) == int(np.searchsorted(cdf, u, side="right"))
        assert calls == boundary


class _FixedDraws:
    """Stands in for a Generator whose ``integers`` gives ``first`` and
    whose ``random()`` gives the entries of ``us`` in turn."""

    def __init__(self, first, us):
        self.first = first
        self.us = iter(us)

    def integers(self, n):
        return self.first

    def random(self):
        return next(self.us)


def boundary_seeding(blocks, k, seed):
    """The full-pass ++ seeding of ``oracle_kmeans`` with each draw's u put
    exactly on a boundary of choice's running sum of ``closest``; returns
    the centroids, the first index and the u values."""
    L, d = blocks.shape
    picks = np.random.default_rng(seed).integers(0, L - 1, size=k)
    centroids = np.empty((k, d))
    centroids[0] = blocks[picks[0]]
    closest = np.sum((blocks - centroids[0]) ** 2, axis=1)
    us = []
    for c in range(1, k):
        cdf = np.cumsum(closest / closest.sum())
        cdf /= cdf[-1]
        us.append(cdf[picks[c]])
        centroids[c] = blocks[int(np.searchsorted(cdf, us[-1], side="right"))]
        closest = np.minimum(closest, np.sum((blocks - centroids[c]) ** 2, axis=1))
    return centroids, int(picks[0]), us


class TestResumChunks:
    @pytest.mark.parametrize("L", [256, 2048, 2900, 32768])
    def test_matches_a_full_reduction(self, L):
        # Rows in one chunk or several, repeated chunks, a row in a short
        # last chunk, and more rows than the gathered path takes.
        rng = np.random.default_rng(L)
        w = 10.0 ** rng.uniform(-8, 8, L)
        starts = np.arange(0, L, reparam._DRAW_CHUNK)
        sums = chunk_sums(w)
        for n in (0, 1, 2, 3, 5, 40, L // 2):
            rows = np.unique(rng.integers(0, L, size=n))
            w[rows] = 10.0 ** rng.uniform(-8, 8, rows.size)
            reparam._resum_chunks(sums, w, rows, starts)
            assert sums.tobytes() == chunk_sums(w).tobytes()

    def test_few_rows_leave_other_chunks_alone(self):
        # Only the chunks that hold a row are summed again: a stale sum
        # elsewhere stays as it was.
        w = np.random.default_rng(26).random(4096)
        sums = chunk_sums(w)
        sums[0] = -1.0
        rows = np.array([300, 301, 2000])
        w[rows] = 0.5
        reparam._resum_chunks(sums, w, rows, np.arange(0, 4096, reparam._DRAW_CHUNK))
        want = chunk_sums(w)
        assert sums[0] == -1.0
        assert sums[1:].tobytes() == want[1:].tobytes()


class TestPlusPlusSeed:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_draws_pin_the_distances(self, seed):
        # A u that lies exactly on a boundary of the running sum moves to
        # the neighbouring block under a one-ulp change of ``closest``, so
        # the seeding's distances must match the full pass bit for bit,
        # summation order included.
        blocks = np.random.default_rng(30 + seed).normal(size=(512, 8))
        want, first, us = boundary_seeding(blocks, 24, seed)
        got = _plusplus_seed(blocks, 24, _FixedDraws(first, us))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 8), st.sampled_from([-60, 0, 60]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_full_pass(self, L, d, exp, lattice, seed):
        # Small block sets at scales 2^-60, 1 and 2^60, off the origin; on
        # a lattice, with duplicates and tied distances.
        rng = np.random.default_rng(seed)
        blocks = rng.normal(size=(L, d)) * 2 + 100 * rng.normal(size=d)
        if lattice:
            blocks = np.round(blocks)
        blocks = np.ldexp(blocks, exp)
        k = int(rng.integers(1, L + 1))
        want = oracle_seeding(blocks, k, np.random.default_rng(seed))
        got = _plusplus_seed(blocks, k, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("L, k", [(8192, 1024), (2900, 512)])
    def test_kept_chunk_sums_match_a_full_reduction(self, monkeypatch, L, k):
        # The chunk sums the draw reads, kept up to date one step at a
        # time, against a fresh reduction of ``closest`` before every draw.
        # About half the steps (a sixth at 2900 blocks, which end in a
        # short chunk) move few enough blocks to sum only their chunks.
        blocks = np.random.default_rng(25).random(size=(L, 8))
        draws = []

        def checked(weights, sums, rng, cum):
            draws.append(sums.tobytes() == chunk_sums(weights).tobytes())
            return _seeding_draw(weights, sums, rng, cum)

        monkeypatch.setattr(reparam, "_seeding_draw", checked)
        got = _plusplus_seed(blocks, k, np.random.default_rng(4))
        assert draws == [True] * (k - 1)
        assert got.tobytes() == oracle_seeding(blocks, k, np.random.default_rng(4)).tobytes()

    def test_memory_bounded_by_blocks(self):
        blocks = np.random.default_rng(22).normal(size=(32768, 8))
        tracemalloc.start()
        try:
            _plusplus_seed(blocks, 256, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The seeding's buffers hold one copy of the blocks plus a few
        # length-L vectors; per-step temporaries would add to that.
        assert peak < 4 * blocks.nbytes


class TestVqAssign:
    def test_exact_centroid(self):
        centroids = np.arange(12.0).reshape(4, 3)
        assert vq_assign(centroids[[3]], centroids)[0] == 3

    def test_no_blocks(self):
        assign = vq_assign(np.empty((0, 8)), np.ones((3, 8)))
        assert assign.shape == (0,) and assign.dtype == np.int64

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[0.0], [2.0]])
        assert vq_assign(np.array([[1.0]]), centroids)[0] == 0

    def test_near_ties_resolve_as_cdist(self):
        # Blocks within a few ulps of the bisector of centroids 0 and 1.
        # The GEMM form misorders some of them; cdist's order must win.
        rng = np.random.default_rng(17)
        centroids = rng.normal(size=(6, 8))
        centroids[2:] += 50.0
        normal = centroids[1] - centroids[0]
        normal /= np.linalg.norm(normal)
        side = rng.normal(size=(4000, 8))
        side -= np.outer(side @ normal, normal)
        offset = rng.integers(-4, 5, size=4000) * 1e-16
        blocks = (centroids[0] + centroids[1]) / 2 + side + offset[:, None] * normal
        dists = cdist(blocks, centroids, "sqeuclidean")
        gap = dists[:, 1] - dists[:, 0]
        assert np.any(gap == 0.0)
        one_ulp = np.abs(gap) == np.spacing(np.minimum(dists[:, 0], dists[:, 1]))
        assert np.any(one_ulp)
        gemm = np.argmin(np.sum(centroids**2, axis=1) - 2.0 * blocks @ centroids.T, axis=1)
        want = np.argmin(dists, axis=1)
        assert np.any(gemm != want)
        assert np.array_equal(vq_assign(blocks, centroids), want)

    def test_distances_match_cdist(self):
        rng = np.random.default_rng(19)
        blocks = rng.normal(size=(1000, 8)) * rng.uniform(0.1, 10.0, size=(1000, 1))
        centroids = rng.normal(size=(300, 8))
        assign, own = _nearest(blocks, centroids)
        dists = cdist(blocks, centroids, "sqeuclidean")
        assert np.array_equal(assign, np.argmin(dists, axis=1))
        assert own.tobytes() == np.min(dists, axis=1).tobytes()

    def test_memory_bounded_by_chunk(self):
        rng = np.random.default_rng(18)
        blocks = rng.normal(size=(32768, 8))
        centroids = rng.normal(size=(4096, 8))
        tracemalloc.start()
        try:
            vq_assign(blocks, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A full 32768 x 4096 distance matrix would take 1074 MB.
        assert peak < 64e6

    def test_memory_bounded_by_chunk_and_outputs(self):
        # Beyond the two length-L results, only O(chunk * k) buffers (about
        # 0.3 MB here): a centred copy of all blocks would take
        # blocks.nbytes, and even a float32 one half of it.
        rng = np.random.default_rng(24)
        blocks = rng.normal(size=(2**18, 8)) + 5.0
        centroids = rng.normal(size=(64, 8)) + 5.0
        tracemalloc.start()
        try:
            assign, own = _nearest(blocks, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < assign.nbytes + own.nbytes + blocks.nbytes / 4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        blocks = rng.normal(size=(100, 4))
        centroids = rng.normal(size=(9, 4))
        got = vq_assign(blocks, centroids)
        for i, b in enumerate(blocks):
            dists = [float(np.sum((b - c) ** 2)) for c in centroids]
            assert got[i] == int(np.argmin(dists))


def near_tie_blocks():
    """The blocks and centroids of ``test_near_ties_resolve_as_cdist``:
    blocks within a few ulps of the bisector of centroids 0 and 1."""
    rng = np.random.default_rng(17)
    centroids = rng.normal(size=(6, 8))
    centroids[2:] += 50.0
    normal = centroids[1] - centroids[0]
    normal /= np.linalg.norm(normal)
    side = rng.normal(size=(4000, 8))
    side -= np.outer(side @ normal, normal)
    offset = rng.integers(-4, 5, size=4000) * 1e-16
    return (centroids[0] + centroids[1]) / 2 + side + offset[:, None] * normal, centroids


class TestSqDistances:
    """The re-rank's distances are cdist's, byte for byte, without scipy.spatial."""

    @pytest.mark.parametrize("case", ["near-ties", "residual-latent-split", "dense-lattice"])
    def test_equals_cdist(self, case):
        # The split latent's blocks lie in two copies 2e3 apart (b ± 1e3);
        # the dense lattice's distances tie often.
        if case == "near-ties":
            blocks, centroids = near_tie_blocks()
        else:
            blocks = ORACLE_CASES[case][0]
            rng = np.random.default_rng(40)
            centroids = blocks[rng.choice(len(blocks), 300, replace=False)]
            centroids = np.concatenate([centroids, centroids[:50] + 1.0])
        want = cdist(blocks, centroids, "sqeuclidean")
        got = reparam._sq_distances(blocks, centroids)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.argmin(got, axis=1), np.argmin(want, axis=1))

    def test_split_latent_re_ranks_every_row_within_the_chunk_budget(self, monkeypatch):
        # On the residual latent split into two copies 2e3 apart the float32
        # screen passes every row of every chunk to the re-rank. Inline at
        # k = 2048 a chunk's scores fill the budget; the re-rank's buffers
        # take as much again, where a distance matrix of the whole chunk,
        # as cdist returns, would take twice that.
        monkeypatch.setattr(reparam, "_SPLIT_K", np.inf)
        blocks = ORACLE_CASES["residual-latent-split"][0]
        centroids = blocks[np.random.default_rng(41).permutation(len(blocks))]
        assert len(centroids) * reparam._CHUNK_ROWS == reparam._CHUNK_SCORES
        rows = []
        sq = reparam._sq_distances

        def counted(x, *args):
            rows.append(len(x))
            return sq(x, *args)

        monkeypatch.setattr(reparam, "_sq_distances", counted)
        _nearest(blocks, centroids)
        assert sum(rows) == len(blocks)
        tracemalloc.start()
        try:
            assign, own = _nearest(blocks, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scores = 4 * reparam._CHUNK_SCORES
        assert peak <= assign.nbytes + own.nbytes + 2 * scores + 2**20
        dists = cdist(blocks, centroids, "sqeuclidean")
        assert np.array_equal(assign, np.argmin(dists, axis=1))
        assert own.tobytes() == np.min(dists, axis=1).tobytes()


def inline_nearest(monkeypatch, blocks, centroids):
    with monkeypatch.context() as m:
        m.setattr(reparam, "_SPLIT_K", np.inf)
        refuse_pool(m)
        return _nearest(blocks, centroids)


class TestSplitPass:
    @pytest.mark.parametrize("L, k", [(5000, 1024), (32768, 4096), (4099, 1031)])
    def test_matches_the_inline_pass(self, monkeypatch, L, k):
        # Above the gate, with L not a multiple of the per-worker chunk (512
        # rows at k = 1024, 128 at k = 4096) nor of the two ranges.
        assert k >= reparam._SPLIT_K and L * k >= reparam._SPLIT_WORK
        rng = np.random.default_rng(L)
        blocks = rng.normal(size=(L, 8))
        centroids = blocks[rng.choice(L, k, replace=False)] + 1e-3
        want = inline_nearest(monkeypatch, blocks, centroids)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        got = _nearest(blocks, centroids)
        assert len(calls) == 2
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("L, k", [(1, 1), (2, 2), (3, 5), (700, 3)])
    def test_fewer_rows_than_two_chunks(self, monkeypatch, L, k):
        # Such shapes lie below the gate; with the gate lowered they split
        # into one short range each, or one range and an empty one.
        monkeypatch.setattr(reparam, "_SPLIT_K", 1)
        rng = np.random.default_rng(L)
        blocks = rng.normal(size=(L, 4))
        centroids = rng.normal(size=(k, 4))
        want = inline_nearest(monkeypatch, blocks, centroids)
        two_cores(monkeypatch)
        monkeypatch.setattr(reparam, "_SPLIT_WORK", 1)
        calls = counted_submits(monkeypatch)
        got = _nearest(blocks, centroids)
        assert len(calls) == 2
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("L, k, ranges", [(1023, 1024, 0), (1024, 1024, 2), (2048, 1024, 2),
                                              (256, 4096, 2), (8192, 512, 0), (16384, 256, 0)])
    def test_gate(self, monkeypatch, L, k, ranges):
        # From k = 1024 and L * k = 2^20 on a pass splits; below either it
        # runs inline.
        rng = np.random.default_rng(30)
        blocks = rng.normal(size=(L, 8))
        centroids = rng.normal(size=(k, 8))
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        _nearest(blocks, centroids)
        assert len(calls) == ranges

    @pytest.mark.parametrize("shape", [(256, 256), (128, 64), (128, 128), (16, 128)])
    def test_benchmark_shapes_at_k_256_stay_inline(self, monkeypatch, shape):
        # layer-256's 256x256 latent and e2e-toy's three layers, at k = 256
        # and d = 8, where a split costs more than it gains.
        two_cores(monkeypatch)
        refuse_pool(monkeypatch)
        latent = np.random.default_rng(27).random(shape)
        cb = fit_codebook(latent, d=8, k=256, iters=25, seed=0)
        assert cb.centroids.shape == (256, 8)

    def test_one_usable_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
        refuse_pool(monkeypatch)
        rng = np.random.default_rng(28)
        blocks = rng.normal(size=(8192, 8))
        centroids = rng.normal(size=(1024, 8))
        assign, own = _nearest(blocks, centroids)
        dists = cdist(blocks, centroids, "sqeuclidean")
        assert np.array_equal(assign, np.argmin(dists, axis=1))
        assert own.tobytes() == np.min(dists, axis=1).tobytes()

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # Duplicated centroids tie every row, so both workers re-rank.
        class Boom(Exception):
            pass

        def boom(*args, **kwargs):
            raise Boom("re-rank failed")

        rng = np.random.default_rng(29)
        blocks = rng.normal(size=(8192, 8))
        centroids = np.repeat(rng.normal(size=(512, 8)), 2, axis=0)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(reparam, "_sq_distances", boom)
            with pytest.raises(Boom, match="re-rank failed"):
                _nearest(blocks, centroids)
        assert len(calls) == 2
        assign, own = _nearest(blocks, centroids)
        assert len(calls) == 4
        dists = cdist(blocks, centroids, "sqeuclidean")
        assert np.array_equal(assign, np.argmin(dists, axis=1))
        assert own.tobytes() == np.min(dists, axis=1).tobytes()


class TestVqReconstruct:
    def test_exact_codebook_identity(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 6))
        cb = fit_codebook(A, d=3, k=8, iters=20, seed=0)
        assert np.allclose(vq_reconstruct(cb), A)

    def test_all_indices_zero(self):
        cb = Codebook(
            centroids=np.array([[1.0, 2.0], [9.0, 9.0]]),
            indices=np.zeros(4, dtype=np.int64),
            shape=(2, 4),
        )
        assert np.array_equal(vq_reconstruct(cb), [[1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0]])

    def test_block_local_error_bound(self):
        # The worst entry error never exceeds the worst block distance.
        rng = np.random.default_rng(7)
        A = rng.normal(size=(8, 8))
        cb = fit_codebook(A, d=4, k=5, iters=30, seed=1)
        recon = vq_reconstruct(cb)
        blocks = flatten_blocks(A, 4)
        block_err = np.linalg.norm(blocks - cb.centroids[cb.indices], axis=1)
        assert np.max(np.abs(A - recon)) <= np.max(block_err) + 1e-12

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 8)).astype(np.float32)
        cb = fit_codebook(A, d=4, k=3, iters=20, seed=2)
        prefix = str(tmp_path / "cb")
        save_codebook(cb, prefix)
        back = load_codebook(prefix, (4, 8))
        assert np.array_equal(back.indices, cb.indices)
        assert np.array_equal(back.centroids, cb.centroids.astype(np.float32))


class TestSvdLowRank:
    def test_diagonal_closed_form(self):
        A = np.diag([3.0, 2.0, 1.0])
        lr = svd_lowrank(A, 1)
        err = A - lr.reconstruct()
        assert np.linalg.norm(err) == pytest.approx(np.sqrt(5.0), rel=1e-9)
        assert np.linalg.norm(err, 2) == pytest.approx(2.0, rel=1e-9)
        assert lr.tail_energy == pytest.approx(np.sqrt(5.0), rel=1e-9)

    def test_full_rank_exact(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(5, 4))
        lr = svd_lowrank(A, 4)
        assert np.allclose(lr.reconstruct(), A)
        assert lr.tail_energy == pytest.approx(0.0, abs=1e-9)

    def test_rank_one_matrix_exact(self):
        u = np.array([[1.0], [2.0], [3.0]])
        v = np.array([[4.0, 5.0]])
        A = u @ v
        lr = svd_lowrank(A, 1)
        assert np.allclose(lr.reconstruct(), A)

    def test_rank_too_large(self):
        with pytest.raises(errors.RankTooLarge):
            svd_lowrank(np.eye(3), 4)

    def test_eckart_young_identities(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            A = np.random.default_rng(seed).normal(size=(12, 9))
            S = np.linalg.svd(A, compute_uv=False)
            for r in (1, 3, 6):
                lr = svd_lowrank(A, r)
                err = A - lr.reconstruct()
                assert np.linalg.norm(err) == pytest.approx(
                    np.sqrt(np.sum(S[r:] ** 2)), rel=1e-5
                )
                assert np.linalg.norm(err, 2) == pytest.approx(S[r], rel=1e-5)


def rearrange_inverse(R, a, b, c, d2):
    """Undo ``rearrange``: row j*a + i, laid out column-major, becomes
    block (i, j) of an a-by-c grid of b-by-d2 blocks."""
    return np.asarray(R).reshape(c, a, d2, b).transpose(1, 3, 0, 2).reshape(a * b, c * d2)


class TestRearrange:
    def test_kron_identity_is_rank_one(self):
        A = np.kron(np.eye(2), np.eye(2))
        R = rearrange(A, 2, 2, 2, 2)
        vec_i = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(R, np.outer(vec_i, vec_i))
        assert np.linalg.matrix_rank(R) == 1

    def test_frobenius_preserved(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            A = np.random.default_rng(seed).normal(size=(6, 10))
            R = rearrange(A, 2, 3, 5, 2)
            assert np.linalg.norm(R) == pytest.approx(np.linalg.norm(A), rel=1e-12)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 4))
        a = b = c = d2 = 2
        R = rearrange(A, a, b, c, d2)
        oracle = np.zeros((a * c, b * d2))
        for i in range(a):
            for j in range(c):
                for p in range(b):
                    for q in range(d2):
                        oracle[j * a + i, q * b + p] = A[i * b + p, j * d2 + q]
        assert np.array_equal(R, oracle)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(6, 8))
        R = rearrange(A, 3, 2, 4, 2)
        assert np.array_equal(rearrange_inverse(R, 3, 2, 4, 2), A)

    def test_bad_factorization(self):
        with pytest.raises(errors.ShapeFactorizationMismatch):
            rearrange(np.zeros((4, 4)), 3, 2, 2, 2)


class TestKroneckerApprox:
    def test_exact_product_recovered(self):
        rng = np.random.default_rng(14)
        P = rng.normal(size=(2, 3))
        Q = rng.normal(size=(3, 2))
        A = np.kron(P, Q)
        kr = kronecker_approx(A, 2, 3, 3, 2)
        assert np.allclose(kr.reconstruct(), A, atol=1e-10)
        assert kr.tail_energy == pytest.approx(0.0, abs=1e-9)

    def test_two_orthogonal_terms_error(self):
        # Build a matrix whose rearrangement has spectrum (3, 1); the
        # nearest single product must leave exactly the second term.
        a, b, c, d2 = 2, 3, 2, 3
        rng = np.random.default_rng(15)
        qu, _ = np.linalg.qr(rng.normal(size=(a * c, 2)))
        qv, _ = np.linalg.qr(rng.normal(size=(b * d2, 2)))
        R_target = 3.0 * np.outer(qu[:, 0], qv[:, 0]) + 1.0 * np.outer(qu[:, 1], qv[:, 1])
        A = rearrange_inverse(R_target, a, b, c, d2)
        kr = kronecker_approx(A, a, b, c, d2)
        err = np.linalg.norm(A - kr.reconstruct())
        assert err == pytest.approx(1.0, rel=1e-9)
        assert kr.tail_energy == pytest.approx(1.0, rel=1e-9)

    def test_error_matches_tail_formula(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(4, 4))
        kr = kronecker_approx(A, 2, 2, 2, 2)
        S = np.linalg.svd(rearrange(A, 2, 2, 2, 2), compute_uv=False)
        err = np.linalg.norm(A - kr.reconstruct())
        assert err == pytest.approx(np.sqrt(np.sum(S[1:] ** 2)), rel=1e-5)


class TestParamCount:
    def test_vq_default_configuration(self):
        assert param_count("vq", 2048, 2048, k=4096, d=8) == 32768

    def test_elementwise(self):
        assert param_count("elementwise", 512, 512) == 262144

    def test_lowrank(self):
        assert param_count("lowrank", 512, 512, r=8) == 8192

    def test_kronecker_balanced(self):
        assert param_count("kronecker", 256, 256) == 2 * 16 * 16

    def test_balanced_factors(self):
        assert balanced_factors(256, 256) == (16, 16, 16, 16)
        a, b, c, d2 = balanced_factors(6, 10)
        assert a * b == 6 and c * d2 == 10
