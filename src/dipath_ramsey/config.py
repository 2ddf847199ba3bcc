"""Tunable constants shared by the coloring and path-extraction pipelines.

The asymptotic arguments behind the constructions fix their constants for
astronomically large inputs.  Desk-scale runs need the same machinery with
gentler numbers, so every constant lives here; `relaxed()` gives the
desk-scale set.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConstantsConfig:
    # acyclic-set extraction constant (size target c*log(n)/(eps*log(1/eps)))
    c: float = 0.1
    # scales the (n/2q)^q low-degree split threshold
    degree_exponent_factor: float = 1.0
    # scales the (n/16q)^{2q} residue-edge stop rule
    termination_edge_threshold: float = 1.0
    # two-color extraction stage factors, in units of k vertices per block
    block_factor: int = 7
    path_floor_factor: int = 5
    # a block path of L >= path_floor_factor * k edges closes, by an edge
    # from its last k vertices to its first k, a cycle of at least
    # L - 2k + 3 vertices, so this floor can be the only one missed only
    # when (cycle_floor_factor - path_floor_factor + 2) * k > 3: never
    # under these defaults, and under relaxed() only for k > 3
    cycle_floor_factor: int = 3
    # subset budget of the exact pseudorandomness check
    subset_budget: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("c", "degree_exponent_factor", "termination_edge_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("block_factor", "path_floor_factor", "cycle_floor_factor",
                     "subset_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    # -- derived quantities ------------------------------------------------

    def degree_threshold(self, n: int, q: int) -> float:
        """Total-degree cutoff separating the low-degree part."""
        return (self.degree_exponent_factor * n / (2 * q)) ** q

    def termination_threshold(self, n: int, q: int) -> float:
        """Residue edge count below which family extraction stops."""
        return self.termination_edge_threshold * (n / (16 * q)) ** (2 * q)

    def acyclic_target(self, n: int, eps: float) -> float:
        """Acyclic-set size promised at density eps on n vertices."""
        if n <= 1:
            return 1.0
        if eps <= 0:
            return float(n)
        if eps >= 0.25:
            return math.floor(math.log2(n)) + 1
        return self.c * math.log2(n) / (eps * math.log2(1 / eps))

    def red_threshold(self, n: int, k: int) -> int:
        """Dichotomy threshold for the red subgraph, ceil(n/(2*f*k))."""
        return max(1, math.ceil(n / (2 * self.block_factor * k)))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "ConstantsConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ConstantsConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def relaxed(cls) -> "ConstantsConfig":
        """Desk-scale defaults: small-degree split and block sizes that stay
        non-degenerate for n in the tens-to-hundreds range."""
        return cls(degree_exponent_factor=0.5, termination_edge_threshold=16.0,
                   block_factor=4, path_floor_factor=2, cycle_floor_factor=1)


DEFAULT_CONFIG = ConstantsConfig()
