"""Label hierarchy, the major-label closure, and artist success labels.

Record labels form a forest via ``parent_label_id``. A handful of roots are
flagged as major; a label counts as major when its ancestor chain (including
itself) reaches one of those roots. An artist is successful when it has a
dated release on a major label, and its change point (change day, as a
date ordinal) is the date of the earliest such release.

The label table is held as arrays over its distinct ids (``LabelTable``)
and the releases as int columns of the corpus (see ``gigmine.ingest``),
which derives its change days from them once (``Corpus.change_day``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gigmine.errors import CycleError

NEVER = np.iinfo(np.int64).max  # the change day of an artist that never signs


@dataclass(frozen=True)
class LabelTable:
    """The labels as arrays over ``ids``, the distinct label ids in file order.

    ``parent[i]`` is the index of label i's parent, -1 when it has none or
    names a label missing from the table; ``major_root[i]`` says whether
    label i is flagged as a major root.
    """

    ids: tuple
    parent: np.ndarray
    major_root: np.ndarray


def major_closure(labels: LabelTable) -> np.ndarray:
    """Mask over ``labels.ids`` of the major roots and their (transitive) subsidiaries.

    Pointer doubling: after round r, ``up`` is each label's ancestor 2**r
    steps up (-1 past the root) and ``major`` says whether a major root lies
    on the chain below it. A chain without a loop ends within n steps, so a
    label whose ancestor past n steps still exists sits on or under a loop,
    and CycleError names the loop reached from the first such label.
    """
    up, major = labels.parent, labels.major_root.copy()
    for _ in range(len(up).bit_length()):  # until 2**rounds > n steps are covered
        major |= (up >= 0) & major[up]
        up = np.where(up >= 0, up[up], -1)
    if (up >= 0).any():
        raise CycleError(_loop(labels, int(np.flatnonzero(up >= 0)[0])))
    return major


def _loop(labels: LabelTable, start: int) -> list:
    """The ids of the loop reached from label ``start``, its first id repeated at the end."""
    chain, at = [], start
    while at not in chain:
        chain.append(at)
        at = int(labels.parent[at])
    return [labels.ids[i] for i in chain[chain.index(at):] + [at]]


def major_releases(corpus) -> np.ndarray:
    """Mask of the corpus releases by a corpus artist on a label in the major closure."""
    # a release on a label missing from the table (-1) reads the appended False
    return np.append(major_closure(corpus.labels), False)[corpus.release_label] & (
        corpus.release_artist >= 0)


def label_corpus(corpus) -> tuple[np.ndarray, dict]:
    """``corpus.change_day``, plus labeling statistics.

    An artist is successful exactly when its change day is not ``NEVER``.
    Artists whose only major-label releases carry no date (release day
    ``NEVER``) cannot anchor a change point; they are labeled negative and
    counted in the stats.
    """
    change_day, n = corpus.change_day, len(corpus.artist_order)
    undated = np.zeros(n, dtype=bool)  # has an undated major-label release
    undated[corpus.release_artist[major_releases(corpus) & (corpus.release_day == NEVER)]] = True
    n_pos = int(np.count_nonzero(change_day < NEVER))
    stats = {
        "artists": n,
        "successful": n_pos,
        "positive_rate": n_pos / n if n else 0.0,
        "major_labels": int(np.count_nonzero(major_closure(corpus.labels))),
        "undated_major_only_artists": int(np.count_nonzero(undated & (change_day == NEVER))),
    }
    return change_day, stats
