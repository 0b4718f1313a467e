"""Star graphs with random edge lengths: drawn, saved and loaded.

A star graph has one center vertex joined to ``v`` outer vertices by edges of
physical length ``l_i``.  Lengths are drawn i.i.d. uniform on
``[1 - 1/(2v), 1 + 1/(2v)]`` so the mean length is 1 and the metric total
length (every edge counted once per direction) is close to ``2v``.

Randomness comes from numpy's PCG64 generator seeded directly with the given
integer, so a ``(v, seed)`` pair reproduces the same graph bit-for-bit on any
platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._guards import require_int

__all__ = ["StarGraph", "build_graph", "load_graph", "save_graph"]


@dataclass(frozen=True)
class StarGraph:
    """Immutable star graph realization.

    v       -- number of outer vertices (= number of physical edges)
    lengths -- tuple of v physical edge lengths
    seed    -- integer RNG seed used to draw the lengths
    """

    v: int
    lengths: tuple
    seed: int

    @property
    def total_length(self) -> float:
        """Metric total length L = 2 * sum(l_i), each edge counted per direction."""
        return 2.0 * float(sum(self.lengths))

    def lengths_array(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=float)


def _require_v_and_seed(v, seed) -> None:
    """A graph has at least one edge and a nonnegative int seed, drawn or loaded."""
    require_int("v", v)
    require_int("seed", seed)
    if v < 1:
        raise ValueError(f"need at least one edge, got v={v}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def build_graph(v: int, seed: int) -> StarGraph:
    """Draw a star graph with v edges, lengths uniform on [1-1/(2v), 1+1/(2v)]."""
    _require_v_and_seed(v, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = 1.0 - 1.0 / (2 * v)
    lengths = lo + rng.random(v) * (1.0 / v)
    return StarGraph(v=v, lengths=tuple(float(x) for x in lengths), seed=seed)


def save_graph(graph: StarGraph, path) -> None:
    payload = {"v": graph.v, "seed": graph.seed, "lengths": list(graph.lengths)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_graph(path) -> StarGraph:
    """Read a graph saved by `save_graph`.

    v and seed pass `build_graph`'s checks; every edge length is finite and positive.
    """
    with open(path) as fh:
        payload = json.load(fh)
    _require_v_and_seed(payload["v"], payload["seed"])
    graph = StarGraph(
        v=payload["v"],
        lengths=tuple(float(x) for x in payload["lengths"]),
        seed=payload["seed"],
    )
    if len(graph.lengths) != graph.v:
        raise ValueError("length list does not match v")
    for edge, length in enumerate(graph.lengths):
        if not 0 < length < np.inf:
            raise ValueError(f"edge {edge} has length {length}; lengths must be finite and positive")
    return graph
