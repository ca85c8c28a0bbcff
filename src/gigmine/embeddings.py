"""Random-walk node embeddings for the bipartite graph.

Nodes are indices: artist i is node i and venue j is node n_a + j, with n_a
the graph's artist count. Walks alternate artist and venue hops by
construction. The skip-gram model with negative sampling is trained directly
in numpy: deterministic given the seed, with updates applied in fixed-size
chunks of (center, context) pairs. Within a chunk, gradients for a node that
occurs several times accumulate before the weights move; this trades pure
SGD for vectorization and keeps results reproducible. Each chunk's pairs are
made from the walks it spans when its turn comes, and its context and noise
rows are gathered one sub-block of ``_NEG_BLOCK`` pairs at a time into one
reused buffer. Beyond the walk matrix a fit holds one buffer (its two weight
matrices and room for one chunk's rows), one chunk's indices and scores, one
sub-block of rows and one block of its update product, however many walks
there are: one fit on a 7,989-node graph at dim 128 peaks at 1.26 times
that buffer under tracemalloc.

Walks step all at once over one CSR of every node's neighbors, one seeded
draw per live walk and step. A chunk's updates land with one sparse matrix
per weight matrix, multiplied a block of rows at a time (see
``_scatter_rows``). The w_out update reads the old center rows of w_in in
place, so it runs first; the w_in update reads the gradients that replace
the chunk's centers in the buffer's tail. Each touched row is its old value
followed by its updates in pair order, added one at a time, so every row
rounds exactly as a sequence of in-order ``row += update`` steps would.
"""

from __future__ import annotations

import numpy as np
import scipy

from gigmine.errors import GigmineError, UnknownNodeError
from gigmine.graph import BipartiteGraph

DIM = 128
WINDOW = 5
NEGATIVES = 5
EPOCHS = 5
LEARNING_RATE = 0.025
CHUNK_SIZE = 8192
WALKS_PER_NODE = 40
WALK_LENGTH = 10

# pairs per block of row_dots in score_embedding and linkpred.score_svd:
# (1024, DIM) float64 rows per side is 1 MB
_SCORE_BLOCK = 1024
# pairs per sub-block of a training chunk whose rows of w_out are gathered
# at once: (256, 1 + NEGATIVES, DIM) float64 is 1.6 MB
_NEG_BLOCK = 256
# touched weight rows per block of a chunk's update product: (1024, DIM)
# float64 is 1 MB
_ROW_BLOCK = 1024
# walks per block when counting tokens and pairs: (1024, length + 1) masks
_WALK_BLOCK = 1024


def sample_walks(
    g: BipartiteGraph,
    walks_per_node: int = WALKS_PER_NODE,
    length: int = WALK_LENGTH,
    seed: int = 0,
) -> np.ndarray:
    """Uniform random walks: ``walks_per_node`` from every node, ``length`` steps each.

    Returns an (n_nodes * walks_per_node, length + 1) int64 matrix with one
    walk of node indices (see the module docstring) per row, the
    ``walks_per_node`` walks of node 0 first, then those of node 1 and so on.
    A row holds the start and the nodes of its ``length`` steps; the row of a
    walk from a node with no edges is that node followed by -1s. All walks
    step at once: each step draws one seeded uniform index per walk into its
    node's neighbors, taken in index order.
    """
    _check_positive(walks_per_node=walks_per_node, length=length)
    if not g.artist_order and not g.venue_order:
        raise GigmineError("cannot sample walks from an empty graph")
    rng = np.random.default_rng(seed)
    n_a = len(g.artist_order)
    # one CSR over all nodes: artist rows list venue nodes, venue rows artists
    ptr = np.concatenate([g.indptr, g.indptr[-1] + g.csc_indptr[1:]])
    nbrs = np.concatenate([g.col + n_a, g.csc_indices])
    deg = np.diff(ptr)
    walks = np.full((deg.size * walks_per_node, length + 1), -1, dtype=np.int64)
    walks[:, 0] = np.repeat(np.arange(deg.size), walks_per_node)
    live = np.flatnonzero(deg[walks[:, 0]])  # a walk that can leave its start never dead-ends
    cur = walks[live, 0]
    for step in range(1, length + 1):
        cur = walks[live, step] = nbrs[ptr[cur] + rng.integers(deg[cur])]
    return walks


def _check_positive(**params: int) -> None:
    for name, value in params.items():
        if value < 1:
            raise GigmineError(f"{name} must be at least 1, got {value}")


def _walk_pairs(walks: np.ndarray, window: int):
    """All (center, context) node pairs within the fixed window.

    Pairs come ordered by walk, then center position, then context offset
    from -window to window; -1 is no node. Padding ``walks`` with ``window``
    columns of -1 either side makes every offset one gather.
    """
    padded = np.pad(walks, ((0, 0), (window, window)), constant_values=-1)
    offsets = np.r_[-window:0, 1 : window + 1]
    contexts = padded[:, window + np.arange(walks.shape[1])[:, None] + offsets]
    centers = np.broadcast_to(walks[:, :, None], contexts.shape)
    valid = (centers >= 0) & (contexts >= 0)
    return centers[valid], contexts[valid]


def _walk_counts(walks: np.ndarray, window: int, n_nodes: int):
    """Each node's token count in ``walks``, and the pairs up to the end of each walk.

    A walk has two pairs, one either way, for each two of its nodes ``d``
    cells apart, d from 1 to ``window``. Walks are read ``_WALK_BLOCK`` at
    a time, so nothing the size of the walk matrix is made.
    """
    freq = np.zeros(n_nodes)
    reach = np.zeros(len(walks), dtype=np.int64)
    for lo in range(0, len(walks), _WALK_BLOCK):
        block, count = walks[lo : lo + _WALK_BLOCK], reach[lo : lo + _WALK_BLOCK]
        live = block >= 0
        freq += np.bincount(block[live], minlength=n_nodes)
        for d in range(1, min(window, block.shape[1] - 1) + 1):
            count += 2 * np.count_nonzero(live[:, d:] & live[:, :-d], axis=1)
    return freq, np.cumsum(reach, out=reach)


def _pair_runs(walks: np.ndarray, window: int, reach: np.ndarray, size: int):
    """``_walk_pairs(walks, window)`` as runs of ``size`` pairs, the last run shorter.

    ``reach`` is ``_walk_counts``' pairs up to the end of each walk. Each run
    is cut from the pairs of only the walks it spans, so no more than one
    run's walks are paired at once.
    """
    total = int(reach[-1])
    for start in range(0, total, size):
        stop = min(start + size, total)
        first = int(np.searchsorted(reach, start, side="right"))
        last = int(np.searchsorted(reach, stop))
        skip = start - (int(reach[first - 1]) if first else 0)
        centers, contexts = _walk_pairs(walks[first : last + 1], window)
        yield centers[skip : skip + stop - start], contexts[skip : skip + stop - start]


def _scatter_rows(buf, idx, coef, src) -> None:
    """``buf[idx[k]] += coef[k] * buf[src[k]]`` for every k, in k order per row.

    No row of ``buf`` is both written and read. A CSR product over ``buf``
    gives the touched rows: row g of the matrix holds 1.0 on the g-th
    distinct index of ``idx``, then that row's coefficients in k order on
    the source rows. scipy adds the terms of a row in stored order, so each
    row rounds exactly as a sequence of ``np.add.at`` steps would; summing
    the updates first would not. Its arrays are built once, in int32 as
    scipy takes them without a copy, and the product runs ``_ROW_BLOCK``
    rows at a time, each block written back before the next.
    """
    # a stable sort of keys of 16 bits or fewer is a radix sort
    key = idx.astype(np.min_scalar_type(len(buf)))
    order = np.argsort(key, kind="stable").astype(np.int32)
    ranked = key[order]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    rows = ranked[first]
    # the k-th update in row order sits after the leading entries of its row
    # and of every row before it
    at = np.arange(idx.size, dtype=np.int32) + np.cumsum(first, dtype=np.int32)
    indptr = np.r_[np.flatnonzero(first), idx.size] + np.arange(rows.size + 1)
    data = np.ones(idx.size + rows.size)
    data[at] = np.broadcast_to(coef, idx.shape)[order]
    cols = rows.astype(np.int32).repeat(np.diff(indptr))
    cols[at] = src[order]
    indptr = indptr.astype(np.int32)
    del key, order, ranked, first, at  # the product reads only the CSR arrays and rows
    # an output row reads its own old row and source rows, which no block
    # writes, so a block of rows at a time gives the bits of one product
    for lo in range(0, rows.size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, rows.size)
        p, q = indptr[lo], indptr[hi]
        s = scipy.sparse.csr_matrix(
            (data[p:q], cols[p:q], indptr[lo : hi + 1] - p), shape=(hi - lo, len(buf))
        )
        buf[rows[lo:hi]] = s @ buf


def _noise_table(cdf: np.ndarray) -> np.ndarray:
    """``np.searchsorted`` of ``cdf`` at each bucket edge b / m, m a power of two >= 8 * n."""
    m = 1 << (8 * cdf.size - 1).bit_length()
    return np.searchsorted(cdf, np.arange(m) / m)


def _draw_noise(cdf: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` for ``u`` in [0, 1), with ``table = _noise_table(cdf)``.

    The indices are the same bit for bit. ``u * m`` is exact for m a power
    of two, so ``u`` lies in bucket ``floor(u * m)``, whose edge's answer is
    no later than ``u``'s. That answer is ``u``'s unless a CDF value lies
    between the edge and ``u``; only those draws search.
    """
    idx = table[(u * table.size).astype(np.intp)]
    miss = cdf[idx] < u
    if miss.any():
        idx[miss] = np.searchsorted(cdf, u[miss])
    return idx


def train_embeddings(
    walks: np.ndarray,
    dim: int = DIM,
    window: int = WINDOW,
    epochs: int = EPOCHS,
    seed: int = 0,
) -> tuple[np.ndarray, list[float]]:
    """Skip-gram with negative sampling over a walk matrix as ``sample_walks`` returns it.

    Each (center, context) pair draws ``NEGATIVES`` noise nodes from the walk
    unigram distribution raised to 3/4. The learning rate decays linearly
    from ``LEARNING_RATE`` over all scheduled updates with a small floor.
    Returns the input weights, an (n_nodes, dim) matrix whose row k is node
    k's vector (n_nodes is one more than the largest index in the walks) and
    that owns only those rows, and the mean pair loss of each epoch.
    """
    _check_positive(dim=dim, window=window, epochs=epochs)
    try:
        walks = np.asarray(walks)
    except ValueError:  # numpy refuses ragged rows
        raise GigmineError("walks must be a 2-D int matrix; its rows differ in length") from None
    if not walks.size or (walks.dtype.kind == "i" and walks.max() < 0):
        raise GigmineError("cannot train embeddings on an empty walk set: it holds no node")
    if walks.ndim != 2 or walks.dtype.kind != "i":
        raise GigmineError(f"walks must be a 2-D int matrix, got a {walks.ndim}-D {walks.dtype}")
    if walks.min() < -1:
        raise GigmineError(f"walks hold node index {walks.min()}, below the -1 pad")
    n_nodes = int(walks.max()) + 1
    freq, reach = _walk_counts(walks, window, n_nodes)

    # a chunk larger than the vocabulary would pile many same-node gradients
    # into one step and overshoot; cap it so small graphs stay near plain SGD
    chunk = max(1, min(CHUNK_SIZE, n_nodes))
    # one buffer for _scatter_rows: w_in, w_out, then a tail that takes a
    # chunk's centers, each overwritten by its gradient once it is scored
    rng = np.random.default_rng(seed)
    buf = np.zeros((2 * n_nodes + chunk, dim))
    w_in, tail = buf[:n_nodes], buf[2 * n_nodes :]
    rng.random(out=w_in)
    w_in -= 0.5
    w_in /= dim
    # a sub-block's rows of w_out: each pair's context row, then its noise rows
    far_buf = np.empty((min(_NEG_BLOCK, chunk), 1 + NEGATIVES, dim))

    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    # the rounded sum can end below the largest draw, and searchsorted would
    # then name a node past the last
    noise_cdf[-1] = 1.0
    noise_table = _noise_table(noise_cdf)

    total_steps = max(1, epochs * int(reach[-1]))
    done = 0
    losses = []
    for epoch in range(epochs):
        epoch_loss, epoch_pairs = 0.0, 0
        for c, o in _pair_runs(walks, window, reach, chunk):
            # the w_out update's rows of buf: the contexts, then the noise
            # rows in pair order
            far = np.empty((1 + NEGATIVES) * c.size, dtype=np.int32)
            ctx, neg = far[: c.size], far[c.size :].reshape(c.size, NEGATIVES)
            np.add(o, n_nodes, out=ctx)
            np.add(_draw_noise(noise_cdf, noise_table, rng.random(neg.shape)), n_nodes, out=neg)
            lr = max(
                LEARNING_RATE * (1.0 - done / total_steps), LEARNING_RATE * 1e-4
            )

            # the chunk's centers, which their gradients overwrite
            grad_c = tail[: c.size]
            # mode="raise" would buffer ``out``; every index is in range
            np.take(w_in, c, axis=0, out=grad_c, mode="clip")
            score = np.empty((c.size, 1 + NEGATIVES))
            sig, g_pos = np.empty(score.shape), np.empty(c.size)
            # every step below is row-local, so sub-blocks of pairs through
            # one reused buffer give the same bits
            for lo in range(0, c.size, _NEG_BLOCK):
                at = slice(lo, lo + _NEG_BLOCK)
                rows = far_buf[: len(ctx[at])]
                np.take(buf, np.column_stack([ctx[at], neg[at]]), axis=0, out=rows, mode="clip")
                # the centers are read here for the last time
                np.einsum("bd,bnd->bn", grad_c[at], rows, out=score[at])
                scipy.special.expit(score[at], out=sig[at])
                np.subtract(sig[at, 0], 1.0, out=g_pos[at])
                np.einsum("bn,bnd->bd", sig[at, 1:], rows[:, 1:], out=grad_c[at])  # noise part
                vo = rows[:, 0]
                vo *= g_pos[at, None]
                # IEEE addition commutes: the bits of g_pos * vo + noise part
                grad_c[at] += vo

            epoch_loss += float(
                np.sum(np.logaddexp(0.0, -score[:, 0]))
                + np.sum(np.logaddexp(0.0, score[:, 1:]))
            )
            epoch_pairs += c.size

            # the w_out update reads the old center rows of w_in, so it runs
            # first; its coefficients, context then noise, take score's place
            coef = score.reshape(-1)
            np.multiply(g_pos, -lr, out=coef[: c.size])
            np.multiply(sig[:, 1:], -lr, out=coef[c.size :].reshape(neg.shape))
            src = np.empty_like(far)
            src[: c.size] = c
            src[c.size :].reshape(neg.shape)[:] = c[:, None]
            _scatter_rows(buf, far, coef, src)
            _scatter_rows(buf, c, -lr, np.arange(2 * n_nodes, 2 * n_nodes + c.size))
            done += c.size
        losses.append(epoch_loss / max(1, epoch_pairs))
    # the vectors own their n rows and nothing more: with its views gone the
    # buffer shrinks in place to w_in, with no second copy
    w_in = tail = grad_c = None
    buf.resize((n_nodes, dim))
    return buf, losses


def row_dots(left: np.ndarray, right: np.ndarray, rows, cols, block: int) -> np.ndarray:
    """``left[rows[k]] · right[cols[k]]`` for each k, as a float array.

    Rows are gathered ``block`` pairs at a time, so memory stays bounded
    however many pairs are scored.
    """
    out = np.empty(rows.size)
    for lo in range(0, rows.size, block):
        at = slice(lo, lo + block)
        np.einsum("kd,kd->k", left[rows[at]], right[cols[at]], out=out[at])
    return out


def score_embedding(vectors: np.ndarray, a, v):
    """Cosine similarity of rows ``a`` and ``v`` of ``vectors``; 0 where either has zero norm.

    ``a`` and ``v`` are node indices, or index arrays of one shape for an
    array of scores. The dot products are ``row_dots``, so memory stays
    bounded however many pairs are scored.
    """
    a, v = np.broadcast_arrays(a, v)
    cos = np.zeros(a.shape)
    a, v = a.reshape(-1), v.reshape(-1)
    for idx in (a, v):
        # numpy would wrap a negative index round to another node
        unknown = (idx < 0) | (idx >= len(vectors))
        if unknown.any():
            raise UnknownNodeError(idx[unknown][0].item())
    # a row's norm rounds the same whether taken here or from a gathered block
    norm = np.linalg.norm(vectors, axis=1)
    denom = norm[a] * norm[v]
    dot = row_dots(vectors, vectors, a, v, _SCORE_BLOCK)
    np.divide(dot, denom, out=cos.reshape(-1), where=denom > 0)
    return cos if cos.ndim else float(cos)
