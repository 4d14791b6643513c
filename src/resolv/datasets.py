"""Small bundled datasets used in docs and tests."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .graph import Graph, Partition, partition_stats


def karate_club() -> tuple[Graph, Partition]:
    """Zachary's karate club (34 nodes, 78 edges) with the observed
    two-faction split as ground truth."""
    pkg = resources.files(__package__) / "data"
    edges = np.loadtxt((pkg / "karate_edges.txt").read_text().splitlines(), dtype=np.int64)
    factions = np.loadtxt((pkg / "karate_factions.txt").read_text().splitlines(), dtype=np.int64)
    assignment = np.zeros(34, dtype=np.int64)
    assignment[factions[:, 0]] = factions[:, 1]
    graph = Graph.from_arrays(34, edges[:, 0], edges[:, 1])
    return graph, partition_stats(graph, assignment)
