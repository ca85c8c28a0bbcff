"""Label hierarchy, the major-label closure, and artist success labels.

Record labels form a forest via ``parent_label_id``. A handful of roots are
flagged as major; a label counts as major when its ancestor chain (including
itself) reaches one of those roots. An artist is successful when it has a
dated release on a major label, and its change point (change day, as a
date ordinal) is the date of the earliest such release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from gigmine.errors import CycleError

NEVER = np.iinfo(np.int64).max  # the change day of an artist that never signs


@dataclass(frozen=True, slots=True)
class LabelNode:
    name: str
    parent: Optional[str] = None


@dataclass(frozen=True)
class LabelTree:
    """All labels plus the set of roots flagged as major."""

    nodes: Mapping[str, LabelNode]
    major_roots: frozenset

    def ancestor_chain(self, label_id: str) -> list[str]:
        """The chain label, parent, grandparent, ... up to a root.

        Raises CycleError when the parent pointers loop; the walk simply
        stops at a parent id missing from the table.
        """
        chain = []
        seen = set()
        cur: Optional[str] = label_id
        while cur is not None and cur in self.nodes:
            if cur in seen:
                cycle = chain[chain.index(cur):] + [cur]
                raise CycleError(cycle)
            seen.add(cur)
            chain.append(cur)
            cur = self.nodes[cur].parent
        return chain


def major_closure(tree: LabelTree) -> frozenset:
    """All label ids that are a major root or a (transitive) subsidiary of one.

    Raises CycleError if any parent chain in the table loops.
    """
    major: dict[str, bool] = {}
    for label_id in tree.nodes:
        if label_id in major:
            continue
        chain = tree.ancestor_chain(label_id)
        # walk up to the first node with a cached verdict or a major root;
        # everything strictly below shares that verdict, nodes above it do
        # not (a major root's own parent is settled on its own turn)
        stop, verdict = len(chain), False
        for depth, node in enumerate(chain):
            known = major.get(node)
            if known is not None:
                stop, verdict = depth, known
                break
            if node in tree.major_roots:
                stop, verdict = depth + 1, True
                break
        for node in chain[:stop]:
            major[node] = verdict
    # ids flagged major but absent from the node table still belong to the closure
    return frozenset(l for l, m in major.items() if m) | tree.major_roots


def label_corpus(corpus) -> tuple[np.ndarray, dict]:
    """Each corpus artist's change day, plus labeling statistics.

    ``change_day`` follows ``corpus.artist_order``: the date ordinal of the
    artist's earliest dated release on a label in the major closure, or
    ``NEVER`` when it has none. An artist is successful exactly when its
    change day is not ``NEVER``. Artists whose only major-label releases
    carry no date cannot anchor a change point; they are labeled negative
    and counted in the stats.
    """
    major = major_closure(corpus.labels)
    index = dict(zip(corpus.artist_order, range(len(corpus.artist_order))))
    change_day = np.full(len(index), NEVER, dtype=np.int64)
    signed = [(index[r.artist_id], r.release_date.toordinal()) for r in corpus.releases
              if r.label_id in major and r.artist_id in index]
    if signed:
        artist, day = np.array(signed, dtype=np.int64).T
        np.minimum.at(change_day, artist, day)
    n_pos = int(np.count_nonzero(change_day < NEVER))
    only_undated = {
        a for a, label_id in corpus.undated_releases
        if label_id in major and a in index and change_day[index[a]] == NEVER
    }
    stats = {
        "artists": len(index),
        "successful": n_pos,
        "positive_rate": n_pos / len(index) if index else 0.0,
        "major_labels": len(major),
        "undated_major_only_artists": len(only_undated),
    }
    return change_day, stats
