"""Random-walk node embeddings for the bipartite graph.

Nodes are indices: artist i is node i and venue j is node n_a + j, with n_a
the graph's artist count. Walks alternate artist and venue hops by
construction. The skip-gram model with negative sampling is trained directly
in numpy: deterministic given the seed, with updates applied in fixed-size
chunks of (center, context) pairs. Within a chunk, gradients for a node that
occurs several times accumulate before the weights move; this trades pure
SGD for vectorization and keeps results reproducible.

Walks step all at once over one CSR of every node's neighbors, one seeded
draw per live walk and step. A chunk's updates land with one sparse product
per weight matrix (see ``_scatter_rows``): each weight matrix heads a buffer
whose tail holds the chunk's source rows, and each touched row is its old
value followed by its updates in pair order, added one at a time, so every
row rounds exactly as a sequence of in-order ``row += update`` steps would.
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

# pairs per block in score_embedding: bounds the gathered rows to a few MB
_SCORE_BLOCK = 4096
# pairs per sub-block of a training chunk whose noise rows are gathered at
# once: (512, NEGATIVES, DIM) float64 is 2.6 MB
_NEG_BLOCK = 512


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
    if not g.artists and not g.venues:
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


def _scatter_rows(buf, n, idx, coef, src_row) -> None:
    """``w[idx[k]] += coef[k] * src[src_row[k]]`` for every k, in k order per row.

    ``buf`` stacks the weights ``w = buf[:n]`` over the source rows
    ``src = buf[n:]``. One CSR product over ``buf`` gives the touched rows:
    row g of the matrix holds 1.0 on the g-th distinct index of ``idx``,
    then that row's coefficients in k order on the source rows. scipy adds
    the terms of a row in stored order, so each row rounds exactly as a
    sequence of ``np.add.at`` steps would; summing the updates first would
    not.
    """
    # a stable sort of keys of 16 bits or fewer is a radix sort
    order = np.argsort(idx.astype(np.min_scalar_type(n)), kind="stable")
    ranked = idx[order]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    rows = ranked[first]
    # the k-th update in row order sits after the leading entries of its row
    # and of every row before it
    at = np.arange(idx.size) + np.cumsum(first)
    indptr = np.r_[np.flatnonzero(first), idx.size] + np.arange(rows.size + 1)
    data = np.ones(idx.size + rows.size)
    data[at] = np.broadcast_to(coef, idx.shape)[order]
    cols = rows.repeat(np.diff(indptr))
    cols[at] = n + src_row[order]
    s = scipy.sparse.csr_matrix((data, cols, indptr), shape=(rows.size, len(buf)))
    buf[rows] = s @ buf


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
    k's vector (n_nodes is one more than the largest index in the walks), and
    the mean pair loss of each epoch.
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
    tokens = walks[walks >= 0]
    n_nodes = int(tokens.max()) + 1
    centers, contexts = _walk_pairs(walks, window)

    # a chunk larger than the vocabulary would pile many same-node gradients
    # into one step and overshoot; cap it so small graphs stay near plain SGD
    chunk = max(1, min(CHUNK_SIZE, n_nodes))
    # each weight matrix heads a buffer whose tail takes a chunk's source
    # rows for _scatter_rows
    rng = np.random.default_rng(seed)
    buf_in, buf_out = np.empty((n_nodes + chunk, dim)), np.zeros((n_nodes + chunk, dim))
    w_in, w_out = buf_in[:n_nodes], buf_out[:n_nodes]
    w_in[:] = (rng.random((n_nodes, dim)) - 0.5) / dim
    vn_buf = np.empty((min(_NEG_BLOCK, chunk), NEGATIVES, dim))

    freq = np.bincount(tokens, minlength=n_nodes).astype(float)
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    # the rounded sum can end below the largest draw, and searchsorted would
    # then name a node past the last
    noise_cdf[-1] = 1.0
    noise_table = _noise_table(noise_cdf)

    n_pairs = centers.size
    total_steps = max(1, epochs * n_pairs)
    done = 0
    losses = []
    for epoch in range(epochs):
        epoch_loss, epoch_pairs = 0.0, 0
        for start in range(0, n_pairs, chunk):
            c = centers[start : start + chunk]
            o = contexts[start : start + chunk]
            neg = _draw_noise(noise_cdf, noise_table, rng.random((c.size, NEGATIVES)))
            lr = max(
                LEARNING_RATE * (1.0 - done / total_steps), LEARNING_RATE * 1e-4
            )

            vc = buf_out[n_nodes : n_nodes + c.size]  # (B, d), source rows of w_out
            np.take(w_in, c, axis=0, out=vc, mode="clip")
            vo = w_out[o]
            pos_score = np.einsum("bd,bd->b", vc, vo)
            pos_sig = scipy.special.expit(pos_score)
            neg_score, neg_sig = np.empty(neg.shape), np.empty(neg.shape)
            neg_grad = np.empty_like(vc)  # noise part of the center gradient
            # the (B, neg, d) gather of noise rows is the largest array of a
            # chunk; row-local einsums over sub-blocks give the same bits
            for lo in range(0, c.size, _NEG_BLOCK):
                at = slice(lo, lo + _NEG_BLOCK)
                vn = vn_buf[: neg[at].shape[0]]
                # mode="raise" would buffer ``out``; every index is in range
                np.take(w_out, neg[at], axis=0, out=vn, mode="clip")
                neg_score[at] = np.einsum("bd,bnd->bn", vc[at], vn)
                neg_sig[at] = scipy.special.expit(neg_score[at])
                neg_grad[at] = np.einsum("bn,bnd->bd", neg_sig[at], vn)

            epoch_loss += float(
                np.sum(np.logaddexp(0.0, -pos_score))
                + np.sum(np.logaddexp(0.0, neg_score))
            )
            epoch_pairs += c.size

            g_pos = pos_sig - 1.0  # (B,)
            b = np.arange(c.size)
            grad_c = buf_in[n_nodes : n_nodes + c.size]
            np.multiply(g_pos[:, None], vo, out=grad_c)
            grad_c += neg_grad
            _scatter_rows(buf_in, n_nodes, c, -lr, b)
            # context then noise updates of w_out, all multiples of rows of vc
            _scatter_rows(
                buf_out,
                n_nodes,
                np.concatenate([o, neg.ravel()]),
                np.concatenate([-lr * g_pos, (-lr * neg_sig).ravel()]),
                np.concatenate([b, b.repeat(NEGATIVES)]),
            )
            done += c.size
        losses.append(epoch_loss / max(1, epoch_pairs))
    return w_in, losses


def score_embedding(vectors: np.ndarray, a, v):
    """Cosine similarity of rows ``a`` and ``v`` of ``vectors``; 0 where either has zero norm.

    ``a`` and ``v`` are node indices, or index arrays of one shape for an
    array of scores. Rows are gathered a block of pairs at a time, so memory
    stays bounded however many pairs are scored.
    """
    a, v = np.broadcast_arrays(a, v)
    cos = np.zeros(a.shape)
    out, a, v = cos.reshape(-1), a.reshape(-1), v.reshape(-1)
    for idx in (a, v):
        # numpy would wrap a negative index round to another node
        unknown = (idx < 0) | (idx >= len(vectors))
        if unknown.any():
            raise UnknownNodeError(idx[unknown][0].item())
    # a row's norm rounds the same whether taken here or from a gathered block
    norm = np.linalg.norm(vectors, axis=1)
    for lo in range(0, a.size, _SCORE_BLOCK):
        i, j = a[lo:lo + _SCORE_BLOCK], v[lo:lo + _SCORE_BLOCK]
        denom = norm[i] * norm[j]
        dot = np.einsum("kd,kd->k", vectors[i], vectors[j])
        np.divide(dot, denom, out=out[lo:lo + _SCORE_BLOCK], where=denom > 0)
    return cos if cos.ndim else float(cos)
