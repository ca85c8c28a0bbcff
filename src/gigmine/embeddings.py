"""Random-walk node embeddings for the bipartite graph.

Nodes are indices: artist i is node i and venue j is node n_a + j, with n_a
the graph's artist count. Walks alternate artist and venue hops by
construction. The skip-gram model with negative sampling is trained directly
in numpy: deterministic given the seed, with updates applied in fixed-size
chunks of (center, context) pairs. Within a chunk, gradients for a node that
occurs several times accumulate before the weights move; this trades pure
SGD for vectorization and keeps results reproducible.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
from scipy.special import expit

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


def sample_walks(
    g: BipartiteGraph,
    walks_per_node: int = WALKS_PER_NODE,
    length: int = WALK_LENGTH,
    seed: int = 0,
) -> list[list[int]]:
    """Uniform random walks: ``walks_per_node`` from every node, ``length`` steps each.

    Walks are lists of node indices (see the module docstring). A walk
    records length+1 nodes including the start; a walk from a node with no
    surviving edges stops where it stands. Neighbor choices are uniform and
    seeded; each node's neighbors are taken in index order.
    """
    if not g.artists and not g.venues:
        raise GigmineError("cannot sample walks from an empty graph")
    rng = np.random.default_rng(seed)
    n_a = len(g.artist_order)
    ptr, cptr = g.indptr, g.csc_indptr
    adjacency = [(g.col[ptr[i]:ptr[i + 1]] + n_a).tolist() for i in range(n_a)]
    adjacency += [
        g.csc_indices[cptr[j]:cptr[j + 1]].tolist() for j in range(len(g.venue_order))
    ]
    walks = []
    for node in range(len(adjacency)):
        for _ in range(walks_per_node):
            walk = [node]
            cur = node
            for _ in range(length):
                nbrs = adjacency[cur]
                if not nbrs:
                    break
                cur = nbrs[rng.integers(len(nbrs))]
                walk.append(cur)
            walks.append(walk)
    return walks


def _walk_pairs(walks: Sequence[Sequence[int]], window: int):
    """All (center, context) node pairs within the fixed window."""
    centers, contexts = [], []
    for walk in walks:
        for i, c in enumerate(walk):
            lo = max(0, i - window)
            for j in range(lo, min(len(walk), i + window + 1)):
                if j == i:
                    continue
                centers.append(c)
                contexts.append(walk[j])
    return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)


def train_embeddings(
    walks: Sequence[Sequence[int]],
    dim: int = DIM,
    window: int = WINDOW,
    epochs: int = EPOCHS,
    seed: int = 0,
) -> tuple[np.ndarray, list[float]]:
    """Skip-gram with negative sampling over walks of node indices.

    Each (center, context) pair draws ``NEGATIVES`` noise nodes from the walk
    unigram distribution raised to 3/4. The learning rate decays linearly
    from ``LEARNING_RATE`` over all scheduled updates with a small floor.
    Returns the input weights, an (n_nodes, dim) matrix whose row k is node
    k's vector (n_nodes is one more than the largest index in the walks), and
    the mean pair loss of each epoch.
    """
    if not walks:
        raise GigmineError("cannot train embeddings on an empty walk set")
    tokens = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.int64)
    n_nodes = int(tokens.max()) + 1
    centers, contexts = _walk_pairs(walks, window)

    rng = np.random.default_rng(seed)
    w_in = (rng.random((n_nodes, dim)) - 0.5) / dim
    w_out = np.zeros((n_nodes, dim))

    freq = np.bincount(tokens, minlength=n_nodes).astype(float)
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    n_pairs = centers.size
    total_steps = max(1, epochs * n_pairs)
    done = 0
    # a chunk larger than the vocabulary would pile many same-node gradients
    # into one step and overshoot; cap it so small graphs stay near plain SGD
    chunk = max(1, min(CHUNK_SIZE, n_nodes))
    losses = []
    for epoch in range(epochs):
        epoch_loss, epoch_pairs = 0.0, 0
        for start in range(0, n_pairs, chunk):
            c = centers[start : start + chunk]
            o = contexts[start : start + chunk]
            neg = np.searchsorted(noise_cdf, rng.random((c.size, NEGATIVES)))
            lr = max(
                LEARNING_RATE * (1.0 - done / total_steps), LEARNING_RATE * 1e-4
            )

            vc = w_in[c]  # (B, d)
            vo = w_out[o]
            vn = w_out[neg]  # (B, neg, d)
            pos_score = np.einsum("bd,bd->b", vc, vo)
            neg_score = np.einsum("bd,bnd->bn", vc, vn)
            pos_sig = expit(pos_score)
            neg_sig = expit(neg_score)

            epoch_loss += float(
                np.sum(np.logaddexp(0.0, -pos_score))
                + np.sum(np.logaddexp(0.0, neg_score))
            )
            epoch_pairs += c.size

            g_pos = pos_sig - 1.0  # (B,)
            grad_c = g_pos[:, None] * vo + np.einsum("bn,bnd->bd", neg_sig, vn)
            np.add.at(w_in, c, -lr * grad_c)
            np.add.at(w_out, o, -lr * g_pos[:, None] * vc)
            np.add.at(
                w_out,
                neg.ravel(),
                (-lr * neg_sig[:, :, None] * vc[:, None, :]).reshape(-1, dim),
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
    for lo in range(0, a.size, _SCORE_BLOCK):
        try:
            x, y = vectors[a[lo:lo + _SCORE_BLOCK]], vectors[v[lo:lo + _SCORE_BLOCK]]
        except IndexError as exc:
            raise UnknownNodeError(exc.args[0]) from exc
        denom = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        dot = np.einsum("kd,kd->k", x, y)
        np.divide(dot, denom, out=out[lo:lo + _SCORE_BLOCK], where=denom > 0)
    return cos if cos.ndim else float(cos)
