"""Codebook reparameterization of the latent rounding matrix, plus the
low-rank and Kronecker-product baselines it is compared against.

A matrix is flattened row-major and chopped into contiguous length-d
blocks; K-means over the blocks yields k centroids and a frozen index
per block. Reconstruction is a table lookup followed by the inverse
reshape, so only the k*d centroid values remain trainable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import parallel, tensor_io
from .errors import (
    DomainError,
    IndivisibleShape,
    KTooLarge,
    OutOfRange,
    RankTooLarge,
    ShapeFactorizationMismatch,
    ShapeMismatch,
    TheoremViolation,
)


@dataclass
class Codebook:
    centroids: np.ndarray  # (k, d)
    indices: np.ndarray  # (L,) ints in [0, k)
    shape: tuple[int, int]  # source matrix shape, rows*cols == L*d

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.centroids.ndim != 2:
            raise ShapeMismatch(f"centroids must be 2-d, got {self.centroids.shape}")
        if self.indices.ndim != 1:
            raise ShapeMismatch(f"indices must be 1-d, got {self.indices.shape}")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.k
        ):
            raise DomainError("codebook indices out of range")
        m, n = self.shape
        if m * n != self.indices.size * self.d:
            raise ShapeMismatch(
                f"shape {self.shape} incompatible with {self.indices.size} blocks of size {self.d}"
            )

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


def flatten_blocks(A, d: int) -> np.ndarray:
    """Row-major flatten chopped into contiguous length-d blocks."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    if d < 1:
        raise DomainError(f"block length must be >= 1, got {d}")
    if A.size % d != 0:
        raise IndivisibleShape(f"matrix of {A.size} entries not divisible into blocks of {d}")
    return A.reshape(-1, d)


def vq_assign(blocks, centroids) -> np.ndarray:
    """Nearest-centroid index per block (squared Euclidean, ties to the
    lowest centroid index).

    Equal to ``argmin`` over ``cdist(blocks, centroids, "sqeuclidean")``
    index for index, in O(chunk * k) memory rather than O(L * k).
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if blocks.shape[1] != centroids.shape[1]:
        raise ShapeMismatch(
            f"block dim {blocks.shape[1]} != centroid dim {centroids.shape[1]}"
        )
    return _nearest(blocks, centroids)[0]


# Float32 scores per pass of the nearest-centroid search, shared by its
# workers (4 MB whatever the number of blocks L), and the most rows a
# chunk takes; 256 rows at k = 4096 inline, 128 per worker when split.
_CHUNK_SCORES = 2**20
_CHUNK_ROWS = 512
# A pass splits its rows over the workers from k >= _SPLIT_K and L * k >=
# _SPLIT_WORK on; smaller passes run inline. Split over inline time,
# medians of 100 alternating calls in two runs (1 BLAS thread, 2-core
# x86_64): at k = 1024, 2048 and 4096, 1.04-2.01x for L * k <= 2^19,
# 0.79-0.95x at 2^20 and 0.65-0.95x at 2^21-2^22. At k = 256 the chunk's
# many small numpy calls hold the GIL: 0.97-1.07x for L from 4096 to
# 16384, and up to 1.42x in earlier runs to L = 65536.
_SPLIT_K = 1024
_SPLIT_WORK = 2**20


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``cdist(x, centroids, "sqeuclidean")`` byte for byte: each distance
    is the squared differences summed column by column, from the first,
    as cdist sums them. Besides the result it allocates one scratch array
    of the result's size and a transposed copy of the centroids, whose
    columns it reads."""
    ct = np.ascontiguousarray(centroids.T)
    out = np.subtract(x[:, :1], ct[0])
    np.multiply(out, out, out=out)
    tmp = np.empty_like(out)
    for j in range(1, x.shape[1]):
        np.subtract(x[:, j:j + 1], ct[j], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    return out


def _nearest(blocks: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every block and its squared distance.

    Both equal what ``argmin`` and ``min`` over ``cdist(blocks,
    centroids, "sqeuclidean")`` give, bit for bit. Each row chunk ranks
    the centroids by ``|c|^2 - 2 x.c`` in one float32 GEMM, on the chunk
    and the centroids centred on the blocks' mean and scaled by 2^-e, so
    that every centred norm is at most 1 and no input scale leaves
    float32's range. In eps32 units of scaled squares a score errs by at
    most ``(d + 4) / 2 (|x| + max|c|)^2``: (d + 1) / 2 for the GEMM's d + 1
    terms and 3/2 for rounding x, c and ``|c|^2`` to float32. Two scores plus
    cdist's float64 rounding and the gap's own stay under ``(d + 5)``
    such units; the slack doubles that and adds the subnormal terms
    ``d 2^-145`` of float32 and ``d 2^-1074`` (unscaled) of cdist. A row
    whose runner-up lies within the slack is re-ranked by its float64
    distances to every centroid, summed as cdist sums them
    (:func:`_sq_distances`), so ties still go to the lowest index; on
    any other row the float32 winner is cdist's strict minimum. The
    distance is summed column by column, in cdist's order.

    Every row's result is exact whatever chunk it falls in, so from
    ``k >= _SPLIT_K`` and ``L * k >= _SPLIT_WORK`` on the rows are split
    into two contiguous ranges, one per thread of the package's pool
    (:func:`parallel.workers`; inline on one usable core). The calling
    thread allocates the chunks' scratch, so the workers share the
    ``_CHUNK_SCORES`` budget of 4 MB rather than taking one each. A
    worker re-ranks a quarter of its chunk's rows at a time, so the
    re-rank's two float64 arrays take no more than its share of the
    scores, and only a chunk with rows to re-rank allocates them. Extra
    memory is O(_CHUNK_SCORES) over all workers, plus the two length-L
    results.
    """
    L, d = blocks.shape
    k = centroids.shape[0]
    if L == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    mean = np.einsum("ij->j", blocks) / L
    reach = max(blocks.max() - mean.min(), mean.max() - blocks.min())
    centred = centroids - mean
    e = int(np.frexp(np.sqrt(d) * max(reach, np.abs(centred).max()))[1])
    scaled_c = np.ldexp(centred, -e).astype(np.float32)
    sq_norms = np.einsum("ij,ij->i", scaled_c, scaled_c, dtype=np.float64)
    # [x, 1] @ weights == |c|^2 - 2 x.c; the |x|^2 all centroids share is left out.
    weights = np.vstack([-2.0 * scaled_c.T, sq_norms.astype(np.float32)])
    c_max = np.sqrt(sq_norms.max())
    tol = 2 * (d + 5) * float(np.finfo(np.float32).eps)
    floor = d * 2.0**-145 + np.ldexp(float(d), min(-2 * e - 1074, 3))
    workers = parallel.workers() if k >= _SPLIT_K and L * k >= _SPLIT_WORK else 1
    per = -(-L // workers)
    chunk = max(1, min(_CHUNK_ROWS, _CHUNK_SCORES // (k * workers), per))
    x = np.empty((workers, chunk, d))
    aug = np.ones((workers, chunk, d + 1), dtype=np.float32)
    scores = np.empty((workers, chunk, k), dtype=np.float32)
    rerank = max(1, chunk // 4)
    assign = np.empty(L, dtype=np.int64)
    own = np.empty(L)

    def run(w: int) -> None:
        for start in range(w * per, min(L, (w + 1) * per), chunk):
            b = blocks[start:min(start + chunk, (w + 1) * per)]
            n = b.shape[0]
            xs = np.ldexp(np.subtract(b, mean, out=x[w, :n]), -e, out=x[w, :n])
            aug[w, :n, :d] = xs
            G = scores[w, :n]
            np.matmul(aug[w, :n], weights, out=G)
            at = np.arange(n)
            a = np.argmin(G, axis=1)
            best = G[at, a]
            G[at, a] = np.inf
            # A second argmin reads short rows faster than min does.
            second = G[at, np.argmin(G, axis=1)]
            slack = tol * (np.sqrt(np.einsum("ij,ij->i", xs, xs)) + c_max) ** 2 + floor
            near = np.flatnonzero(second - best <= slack)
            for i in range(0, near.size, rerank):
                rows = near[i:i + rerank]
                a[rows] = np.argmin(_sq_distances(b[rows], centroids), axis=1)
            c = centroids[a]
            dist = (b[:, 0] - c[:, 0]) ** 2
            for j in range(1, d):
                dist += (b[:, j] - c[:, j]) ** 2
            assign[start:start + n] = a
            own[start:start + n] = dist

    parallel.run([partial(run, w) for w in range(workers)])
    return assign, own


def wcss(blocks, centroids, indices) -> float:
    """Within-cluster sum of squares of an assignment."""
    blocks = np.asarray(blocks, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    diffs = blocks - centroids[np.asarray(indices, dtype=np.int64)]
    return float(np.sum(diffs * diffs))


def _weighted_draw(weights: np.ndarray, total: float, u: float, cum: np.ndarray) -> int:
    """The index ``rng.choice(len(weights), p=weights / total)`` draws when
    its ``rng.random()`` gives ``u``.

    ``rng.choice`` returns the first i with ``cum[i] / cum[-1] > u``, where
    ``cum`` is the running sum of ``p``. It first checks ``p`` in several
    O(L) passes and divides all of ``cum`` by ``cum[-1]``; both are skipped
    here. ``searchsorted`` on ``u * cum[-1]`` finds the index or one next
    to it, since ``u * cum[-1]`` rounds apart from the quotients; the test
    is monotone in i, so a local fix-up moves to the first i that passes.
    ``cum`` is a scratch buffer of the weights' length. The weights must
    be finite with a positive ``total``.
    """
    np.divide(weights, total, out=cum)
    cum.cumsum(out=cum)
    last = cum[-1]
    i = min(int(cum.searchsorted(u * last, "right")), cum.size - 1)
    while i > 0 and cum[i - 1] / last > u:
        i -= 1
    while not cum[i] / last > u:
        i += 1
    return i


# Weights per chunk of the seeding draw's locator.
_DRAW_CHUNK = 256


def _resum_chunks(sums: np.ndarray, weights: np.ndarray, rows: np.ndarray,
                  starts: np.ndarray) -> None:
    """Bring ``sums``, ``np.add.reduceat(weights, starts)`` for ``starts``
    every ``_DRAW_CHUNK``, up to date after the weights at ``rows``
    (sorted) changed, bit for bit.

    When few rows changed, only their chunks are summed again: gathered
    into one compact copy, each is the same run of ``_DRAW_CHUNK`` values,
    which ``reduceat`` adds in the same order wherever it lies. Otherwise,
    or when a row lies in a short last chunk, every chunk is.
    """
    if not rows.size:
        return
    whole = weights.size // _DRAW_CHUNK
    if 2 * _DRAW_CHUNK * rows.size > weights.size or rows[-1] >= whole * _DRAW_CHUNK:
        np.add.reduceat(weights, starts, out=sums)
        return
    chunks = rows // _DRAW_CHUNK
    runs = weights[:whole * _DRAW_CHUNK].reshape(whole, _DRAW_CHUNK)[chunks]
    sums[chunks] = np.add.reduceat(runs.ravel(), starts[:chunks.size])


def _seeding_draw(weights: np.ndarray, sums: np.ndarray, rng: np.random.Generator,
                  cum: np.ndarray) -> int:
    """The ++ seeding's draw: ``rng.choice(L, p=weights / weights.sum())``,
    or ``rng.integers(L)`` when every weight is 0, index and generator
    state alike. The weights must be finite and non-negative, with a
    finite sum; ``sums`` are the sums of every ``_DRAW_CHUNK`` of them,
    as :func:`_resum_chunks` keeps them, and ``cum`` is a scratch buffer
    of their length.

    Choice's index is located without its O(L) quotient and running sum:
    the running sum of the chunk sums, then one running sum inside the
    chunk where ``u`` falls.
    That gives prefix sums ``P_i`` and a total ``P`` that differ from the
    exact ``S_i`` and ``S`` by at most ``(2C + n) eps`` and ``(C + n) eps``
    relative, for at most C weights per chunk, n chunks and eps = 2^-53
    (any order of summing m non-negative terms errs by at most ``(m-1)
    eps`` relative). This holds for any L >= 1.

    Choice's ``x_i = cum[i] / cum[-1]`` sits near ``r_i = S_i / S``: the
    quotients ``w_j / total`` err by ``eps`` relative plus 2^-1075 where
    they are subnormal, the sequential sum of non-negative terms by ``i
    eps``, its last entry by ``L eps`` and the division by ``eps``. So
    ``|x_i - r_i| <= (2L + 2) eps r_i + (L + 1) 2^-1074`` to first order,
    as ``total`` is itself a sum of the weights. Adding both sides and the
    few roundings of the test below gives ``(2L + 3C + 2n + 6) eps``; the
    relative slack ``4 (L + C + n + 8) eps`` and absolute slack ``2 (L +
    4) 2^-1074`` more than cover it. The located i is returned only when
    the slack settles both neighbours: ``x_{i-1} <= u < x_i`` for every
    rounding within the bound. Otherwise, with a chance of about ``8 (L +
    C + n) eps`` per draw (3e-11 at L = 32768) and whenever ``u`` sits on
    a boundary, it falls back to the exact :func:`_weighted_draw` with the
    same ``u``, the only case that needs the total ``weights.sum()``.
    """
    L = weights.size
    run = sums.cumsum()
    whole = float(run[-1])
    if not whole > 0.0:
        return int(rng.integers(L))
    u = rng.random()
    target = u * whole
    b = min(int(run.searchsorted(target, "right")), run.size - 1)
    before = float(run[b - 1]) if b else 0.0
    lo = b * _DRAW_CHUNK
    part = weights[lo:lo + _DRAW_CHUNK].cumsum()
    part += before
    j = min(int(part.searchsorted(target, "right")), part.size - 1)
    below = float(part[j - 1]) if j else before
    rel = 4.0 * (L + _DRAW_CHUNK + run.size + 8) * 2.0**-53
    tiny = 2.0 * (L + 4) * 2.0**-1074
    if below / whole * (1.0 + rel) + tiny <= u and float(part[j]) / whole * (1.0 - rel) - tiny > u:
        return lo + j
    return _weighted_draw(weights, weights.sum(), u, cum)


def _plusplus_seed(blocks: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted (k-means++) seeding.

    ``closest`` holds each block's squared distance to its nearest centre.
    After each draw a float32 screen over all L blocks, one GEMV for
    ``|x|^2 - 2 x.c + |c|^2``, picks the blocks the new centre may bring
    nearer; only those are measured again, by the full pass's float64
    expression, so every draw is the same. The screen's copy of the blocks
    is centred on their mean and scaled by 2^-e to norms of at most 1, which
    moves distances by rounding only. In eps32 units of scaled squares the
    screen errs by at most 4 for the copy, d/2 per float32 norm, d for the
    doubled dot, 3.5 for the two sums and 2.5 for rounding the threshold
    ``closest + slack`` to float32 (above 5 every block passes): 2d + 10 in
    all. Float64 adds far less, bar ``d 2^-1074`` unscaled where subnormal
    squares round (capped at 8d). The slack, 8 (d + 4) plus that term,
    covers both, so no block the screen drops is nearer than ``closest``.
    The draw is :func:`_seeding_draw` on ``closest`` and its chunk sums,
    which are kept by :func:`_resum_chunks`: once few blocks move per
    step, only their chunks are summed again. A step then costs the GEMV
    and three float32 passes over L, plus O(d) per block measured again
    and O(_DRAW_CHUNK) per block moved.
    """
    L, d = blocks.shape
    centroids = np.empty((k, d))
    centroids[0] = blocks[int(rng.integers(L))]
    diff = blocks - centroids[0]
    closest = np.sum(np.square(diff, out=diff), axis=1)
    scaled = np.subtract(blocks, blocks.mean(axis=0), out=diff)
    e = int(np.frexp(np.sqrt(np.max(np.einsum("ij,ij->i", scaled, scaled))))[1])
    scaled_t = np.ldexp(scaled, -e, out=scaled).T.astype(np.float32, order="C")  # (d, L)
    del diff, scaled
    sq_norms = np.einsum("ij,ij->j", scaled_t, scaled_t)
    slack = 8 * (d + 4) * np.finfo(np.float32).eps + np.ldexp(float(d), min(-2 * e - 1074, 3))
    thr = (np.ldexp(closest, -2 * e) + slack).astype(np.float32)
    starts = np.arange(0, L, _DRAW_CHUNK)
    sums = np.add.reduceat(closest, starts)
    cum = np.empty(L)
    score = np.empty(L, dtype=np.float32)
    for c in range(1, k):
        idx = _seeding_draw(closest, sums, rng, cum)
        centre = centroids[c] = blocks[idx]
        np.matmul(-2.0 * scaled_t[:, idx], scaled_t, out=score)
        np.add(score, sq_norms, out=score)
        np.add(score, sq_norms[idx], out=score)
        rows = np.flatnonzero(score < thr)
        dist = np.sum(np.square(blocks[rows] - centre), axis=1)
        nearer = dist < closest[rows]
        rows, dist = rows[nearer], dist[nearer]
        closest[rows] = dist
        _resum_chunks(sums, closest, rows, starts)
        thr[rows] = np.ldexp(dist, -2 * e) + slack
    return centroids


def kmeans_fit(
    blocks,
    k: int,
    iters: int = 100,
    seed: int = 0,
    shape: tuple[int, int] | None = None,
) -> Codebook:
    """Lloyd's algorithm with distance-weighted seeding.

    ``iters`` is a budget; the loop stops early once assignments reach a
    fixed point. Ties assign to the lowest centroid index; a cluster
    that empties is reseeded to the block currently farthest from its
    own centroid (clusters emptied *by* a reseed are caught on the next
    pass). The objective is non-increasing across iterations; the loop
    raises :class:`TheoremViolation` if it ever increases.

    ``shape`` records the source-matrix shape for reconstruction and
    defaults to the block matrix itself.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2:
        raise ShapeMismatch(f"expected 2-d blocks, got shape {blocks.shape}")
    L, d = blocks.shape
    if k < 1 or k > L:
        raise KTooLarge(f"k must be in [1, {L}], got {k}")
    if iters < 1:
        raise DomainError(f"iters must be >= 1, got {iters}")
    if not np.isfinite(blocks).all():
        raise DomainError("blocks must be finite")
    # Every squared distance stays below 4 max |x|^2, so the seeding's sum
    # of L of them stays below 4 L max |x|^2; the factor 8 leaves room for
    # rounding.
    max_sq = float(np.max(np.einsum("ij,ij->i", blocks, blocks)))
    if not np.isfinite(8.0 * L * max_sq):
        raise OutOfRange(f"blocks too large: {L} squared norms of up to {max_sq:.3g} "
                         "overflow the k-means distance sum")

    rng = np.random.default_rng(seed)
    centroids = _plusplus_seed(blocks, k, rng)

    prev_assign = None
    prev_obj = np.inf
    converged = False
    for _ in range(iters):
        assign, own = _nearest(blocks, centroids)

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

        obj = float(own.sum())
        if not obj <= prev_obj * (1.0 + 1e-9) + 1e-12:
            raise TheoremViolation(f"k-means objective increased: {prev_obj!r} -> {obj!r}")
        prev_obj = obj

        if not reseeded and prev_assign is not None and np.array_equal(assign, prev_assign):
            # The centroids produced this assignment, so it is final.
            converged = True
            break
        prev_assign = assign

        # A cluster emptied by a reseed donation keeps its centroid until
        # the next pass picks it up again.
        sums = np.empty((k, d))
        for j in range(d):
            sums[:, j] = np.bincount(assign, weights=blocks[:, j], minlength=k)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]

    indices = assign if converged else vq_assign(blocks, centroids)
    if shape is None:
        shape = (L, d)
    return Codebook(centroids=centroids, indices=indices, shape=tuple(shape))


def fit_codebook(A, d: int, k: int, iters: int = 100, seed: int = 0) -> Codebook:
    """Flatten a matrix into blocks and fit a codebook for it."""
    A = np.asarray(A, dtype=np.float64)
    blocks = flatten_blocks(A, d)
    return kmeans_fit(blocks, k, iters=iters, seed=seed, shape=A.shape)


def vq_reconstruct(cb: Codebook) -> np.ndarray:
    """Gather each block's centroid and undo the flatten."""
    return cb.centroids[cb.indices].reshape(cb.shape)


def save_codebook(cb: Codebook, prefix: str) -> None:
    """Serialize as a centroid tensor plus a raw u32 index sidecar."""
    tensor_io.save_tensor(cb.centroids, f"{prefix}.centroids.vqt")
    tensor_io.save_indices_u32(cb.indices, f"{prefix}.indices.u32")


def load_codebook(prefix: str, shape: tuple[int, int]) -> Codebook:
    centroids = tensor_io.load_tensor(f"{prefix}.centroids.vqt")
    indices = tensor_io.load_indices_u32(f"{prefix}.indices.u32")
    return Codebook(centroids=centroids, indices=indices, shape=tuple(shape))


@dataclass
class LowRankApprox:
    left: np.ndarray  # (m, r)
    right: np.ndarray  # (n, r)
    tail_energy: float  # Frobenius norm of the discarded spectrum

    def reconstruct(self) -> np.ndarray:
        return self.left @ self.right.T


def svd_lowrank(A, r: int) -> LowRankApprox:
    """Best rank-r approximation by truncated SVD.

    The Frobenius error equals sqrt(sum of squared discarded singular
    values) and the spectral error equals the first discarded one.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    if r < 1 or r > min(A.shape):
        raise RankTooLarge(f"rank must be in [1, {min(A.shape)}], got {r}")
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    left = U[:, :r] * S[:r]
    right = Vt[:r].T
    tail = float(np.sqrt(np.sum(S[r:] ** 2)))
    return LowRankApprox(left=left, right=right, tail_energy=tail)


def rearrange(A, a: int, b: int, c: int, d2: int) -> np.ndarray:
    """Block-to-row shuffle that turns a Kronecker product into rank 1.

    ``A`` of shape (a*b, c*d2) is viewed as an a-by-c grid of b-by-d2
    blocks; block (i, j) becomes row j*a + i, laid out column-major.
    The shuffle is a permutation of entries, so the Frobenius norm is
    preserved exactly, and the image of ``kron(P, Q)`` is the rank-1
    outer product of the column-stacked factors.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape != (a * b, c * d2):
        raise ShapeFactorizationMismatch(
            f"shape {A.shape} does not factor as ({a}*{b}, {c}*{d2})"
        )
    return A.reshape(a, b, c, d2).transpose(2, 0, 3, 1).reshape(a * c, b * d2)


@dataclass
class KroneckerApprox:
    factor_a: np.ndarray  # (a, c)
    factor_b: np.ndarray  # (b, d2)
    tail_energy: float

    def reconstruct(self) -> np.ndarray:
        return np.kron(self.factor_a, self.factor_b)


def _unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    # Column-stacking order, matching the rearrangement's row layout.
    return v.reshape(cols, rows).T


def kronecker_approx(A, a: int, b: int, c: int, d2: int) -> KroneckerApprox:
    """Nearest single Kronecker product.

    Equivalent to the best rank-1 approximation of the rearranged
    matrix, so the Frobenius error is the tail of its spectrum.
    """
    R = rearrange(A, a, b, c, d2)
    U, S, Vt = np.linalg.svd(R, full_matrices=False)
    root = np.sqrt(S[0])
    factor_a = _unvec(root * U[:, 0], a, c)
    factor_b = _unvec(root * Vt[0], b, d2)
    tail = float(np.sqrt(np.sum(S[1:] ** 2)))
    return KroneckerApprox(factor_a=factor_a, factor_b=factor_b, tail_energy=tail)


def balanced_factors(m: int, n: int) -> tuple[int, int, int, int]:
    """Factor (m, n) as (a*b, c*d2) with a, c near the square roots."""

    def nearest_divisor(x: int) -> int:
        target = np.sqrt(x)
        divisors = [v for v in range(1, x + 1) if x % v == 0]
        return min(divisors, key=lambda v: (abs(v - target), v))

    a = nearest_divisor(m)
    c = nearest_divisor(n)
    return a, m // a, c, n // c


def param_count(
    method: str,
    m: int,
    n: int,
    *,
    k: int = 0,
    d: int = 0,
    r: int = 0,
    factors: tuple[int, int, int, int] | None = None,
) -> int:
    """Trainable-parameter count of each reparameterization.

    Codebook indices are frozen, so only centroid values count for the
    vq method.
    """
    if method == "elementwise":
        return m * n
    if method == "vq":
        return k * d
    if method == "lowrank":
        return r * (m + n)
    if method == "kronecker":
        if factors is None:
            factors = balanced_factors(m, n)
        a, b, c, d2 = factors
        return a * c + b * d2
    raise DomainError(f"unknown method {method!r}")
