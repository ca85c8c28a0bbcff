"""Random-walk node embeddings for the bipartite graph.

Walks alternate artist and venue hops by construction. The skip-gram model
with negative sampling is trained directly in numpy: deterministic given the
seed, with updates applied in fixed-size chunks of (center, context) pairs.
Within a chunk, gradients for a node that occurs several times accumulate
before the weights move; this trades pure SGD for vectorization and keeps
results reproducible.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import expit

from gigmine.errors import GigmineError, UnknownNodeError
from gigmine.graph import BipartiteGraph

DIM = 128
WINDOW = 5
NEGATIVES = 5
EPOCHS = 5
LEARNING_RATE = 0.025
WALKS_PER_NODE = 40
WALK_LENGTH = 10


def sample_walks(
    g: BipartiteGraph,
    walks_per_node: int = WALKS_PER_NODE,
    length: int = WALK_LENGTH,
    seed: int = 0,
) -> list[list]:
    """Uniform random walks: ``walks_per_node`` from every node, ``length`` steps each.

    A walk records length+1 nodes including the start; a walk from a node
    with no surviving edges stops where it stands. Neighbor choices are
    uniform and seeded; each node's neighbors are taken in index order.
    """
    if not g.artists and not g.venues:
        raise GigmineError("cannot sample walks from an empty graph")
    rng = np.random.default_rng(seed)
    # node k < n_a is artist k, node n_a + j is venue j
    names = g.artist_order + g.venue_order
    n_a = len(g.artist_order)
    ptr, cptr = g.indptr, g.csc_indptr
    adjacency = [(g.col[ptr[i]:ptr[i + 1]] + n_a).tolist() for i in range(n_a)]
    adjacency += [
        g.csc_indices[cptr[j]:cptr[j + 1]].tolist() for j in range(len(g.venue_order))
    ]
    walks = []
    for node in range(len(names)):
        for _ in range(walks_per_node):
            walk = [node]
            cur = node
            for _ in range(length):
                nbrs = adjacency[cur]
                if not nbrs:
                    break
                cur = nbrs[rng.integers(len(nbrs))]
                walk.append(cur)
            walks.append([names[k] for k in walk])
    return walks


def _walk_pairs(walks: Sequence[Sequence], index: dict, window: int):
    """All (center, context) index pairs within the fixed window."""
    centers, contexts = [], []
    for walk in walks:
        ids = [index[n] for n in walk]
        for i, c in enumerate(ids):
            lo = max(0, i - window)
            for j in range(lo, min(len(ids), i + window + 1)):
                if j == i:
                    continue
                centers.append(c)
                contexts.append(ids[j])
    return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)


def train_embeddings(
    walks: Sequence[Sequence],
    dim: int = DIM,
    window: int = WINDOW,
    epochs: int = EPOCHS,
    negatives: int = NEGATIVES,
    learning_rate: float = LEARNING_RATE,
    seed: int = 0,
    chunk_size: int = 8192,
    loss_history: Optional[list] = None,
) -> dict:
    """Skip-gram with negative sampling over walk windows.

    Noise nodes are drawn from the walk unigram distribution raised to 3/4.
    The learning rate decays linearly over all scheduled updates with a small
    floor. Pass a list as ``loss_history`` to collect the mean pair loss per
    epoch. Returns node -> unit-norm-free float vector (input weights).
    """
    if not walks:
        raise GigmineError("cannot train embeddings on an empty walk set")
    vocab = sorted({n for walk in walks for n in walk}, key=str)
    index = {n: i for i, n in enumerate(vocab)}
    centers, contexts = _walk_pairs(walks, index, window)

    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))

    freq = np.bincount(
        np.fromiter((index[n] for walk in walks for n in walk), dtype=np.int64),
        minlength=len(vocab),
    ).astype(float)
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    n_pairs = centers.size
    total_steps = max(1, epochs * n_pairs)
    done = 0
    # a chunk larger than the vocabulary would pile many same-node gradients
    # into one step and overshoot; cap it so small graphs stay near plain SGD
    chunk = max(1, min(chunk_size, len(vocab)))
    for epoch in range(epochs):
        epoch_loss, epoch_pairs = 0.0, 0
        for start in range(0, n_pairs, chunk):
            c = centers[start : start + chunk]
            o = contexts[start : start + chunk]
            neg = np.searchsorted(noise_cdf, rng.random((c.size, negatives)))
            lr = max(
                learning_rate * (1.0 - done / total_steps), learning_rate * 1e-4
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
        if loss_history is not None:
            loss_history.append(epoch_loss / max(1, epoch_pairs))
    return {n: w_in[i].copy() for n, i in index.items()}


def score_embedding(embeddings: Mapping, a, v) -> float:
    """Cosine similarity of the two node vectors; 0 for a zero-norm vector."""
    try:
        x, y = embeddings[a], embeddings[v]
    except KeyError as exc:
        raise UnknownNodeError(exc.args[0]) from exc
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))
