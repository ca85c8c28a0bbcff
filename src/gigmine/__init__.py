"""Graph-analytics toolkit for artist-venue live event logs.

Builds a temporal bipartite graph from concert records and supports three
analysis tasks: forecasting artist success from performance histories,
predicting future artist-venue links, and ranking influential artists and
venues with a temporally weighted bipartite PageRank variant.
"""

__version__ = "0.1.0"

from gigmine.errors import (
    CorpusFormatError,
    CycleError,
    GigmineError,
    UnknownNodeError,
)
from gigmine.graph import BipartiteGraph, build_graph

__all__ = [
    "BipartiteGraph",
    "build_graph",
    "GigmineError",
    "CorpusFormatError",
    "CycleError",
    "UnknownNodeError",
    "__version__",
]
