"""Label hierarchy, the major-label closure, and artist success labels.

Record labels form a forest via ``parent_label_id``. A handful of roots are
flagged as major; a label counts as major when its ancestor chain (including
itself) reaches one of those roots. An artist is successful when it has a
dated release on a major label, and its change point is the date of the
earliest such release.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from gigmine.errors import CycleError


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


def change_point(releases: Iterable, major_labels: frozenset) -> Optional[dt.date]:
    """Earliest dated major-label release, or None when there is none."""
    dates = [r.release_date for r in releases if r.label_id in major_labels]
    return min(dates) if dates else None


@dataclass(frozen=True, slots=True)
class SuccessLabel:
    artist_id: str
    successful: bool
    change_point: Optional[dt.date]


def label_corpus(corpus) -> tuple[dict[str, SuccessLabel], dict]:
    """One SuccessLabel per corpus artist, plus labeling statistics.

    An artist is successful exactly when it has a change point, i.e. a dated
    release on a label in the major closure. Artists whose only major-label
    releases carry no date cannot anchor a change point; they are labeled
    negative and counted in the stats.
    """
    major = major_closure(corpus.labels)
    labels: dict[str, SuccessLabel] = {}
    for artist in corpus.artist_order:
        cp = change_point(corpus.artist_releases.get(artist, ()), major)
        labels[artist] = SuccessLabel(artist_id=artist, successful=cp is not None, change_point=cp)
    n_pos = sum(lab.successful for lab in labels.values())
    only_undated = {
        a for a, label_id in corpus.undated_releases
        if label_id in major and a in labels and not labels[a].successful
    }
    stats = {
        "artists": len(labels),
        "successful": n_pos,
        "positive_rate": n_pos / len(labels) if labels else 0.0,
        "major_labels": len(major),
        "undated_major_only_artists": len(only_undated),
    }
    return labels, stats


def change_points(labels: Mapping[str, SuccessLabel]) -> dict[str, Optional[dt.date]]:
    """Convenience map artist -> change point for the activity filter."""
    return {a: lab.change_point for a, lab in labels.items()}
