"""Ground-truth DAG generation and linear Gaussian SEM sampling.

Random graphs are Erdos-Renyi on unordered pairs with edge probability
d/(p-1), oriented by a uniformly random linear order.  Edge weights are
uniform on [-1, -0.25] union [0.25, 1] and noise is standard normal.

All randomness flows through ``numpy.random.Generator`` seeded with
PCG64, so a seed fixes the draw sequence exactly on every platform.
Parallel replications should derive their streams as seed + replicate
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Dag, topological_order
from .scoring import SufficientStats

__all__ = [
    "SimulationError",
    "SemModel",
    "make_rng",
    "random_dag",
    "assign_weights",
    "sample",
    "population_covariance",
]

WEIGHT_LOW = 0.25
WEIGHT_HIGH = 1.0


class SimulationError(Exception):
    """Raised for invalid simulation parameters or inconsistent models."""


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SemModel:
    """Linear SEM: X_i = eps_i + sum over parents k of w[k,i] * X_k."""

    dag: Dag
    weights: dict
    noise_variance: float = 1.0

    def __post_init__(self) -> None:
        arcs = set(self.dag.arcs())
        if set(self.weights) != arcs:
            raise SimulationError("weights must be keyed exactly by the arcs")
        for arc, w in self.weights.items():
            if not WEIGHT_LOW <= abs(w) <= WEIGHT_HIGH:
                raise SimulationError(
                    f"weight {w} for arc {arc} outside the magnitude band")
        if self.noise_variance <= 0:
            raise SimulationError("noise variance must be positive")

    @property
    def p(self) -> int:
        return self.dag.p


def random_dag(p: int, d: float, rng: np.random.Generator) -> Dag:
    """Erdos-Renyi skeleton with expected degree d, random acyclic orientation."""
    if p < 1:
        raise SimulationError(f"need at least one node, got p={p}")
    if not 0 <= d <= max(p - 1, 0):
        raise SimulationError(f"expected degree d={d} outside [0, {max(p - 1, 0)}]")
    if p == 1:
        return Dag.from_arcs(1, [])
    prob = d / (p - 1)
    order = rng.permutation(p)
    position = {int(node): rank for rank, node in enumerate(order)}
    arcs = []
    for i, j in combinations(range(p), 2):
        if rng.random() < prob:
            if position[i] < position[j]:
                arcs.append((i, j))
            else:
                arcs.append((j, i))
    return Dag.from_arcs(p, arcs)


def assign_weights(dag: Dag, rng: np.random.Generator) -> SemModel:
    """Draw arc weights uniformly from the two-interval magnitude band."""
    weights = {}
    for arc in dag.arcs():
        sign = -1.0 if rng.random() < 0.5 else 1.0
        weights[arc] = sign * rng.uniform(WEIGHT_LOW, WEIGHT_HIGH)
    return SemModel(dag=dag, weights=weights)


def sample(model: SemModel, n: int, rng: np.random.Generator):
    """Draw n rows from the SEM; returns (data, SufficientStats)."""
    if n < 1:
        raise SimulationError(f"need n >= 1, got {n}")
    p = model.p
    scale = float(np.sqrt(model.noise_variance))
    data = rng.standard_normal((n, p)) * scale
    for node in topological_order(model.dag):
        # Float sums depend on their order, which here is the parent
        # frozenset's: Dag.from_arcs must keep building its sets as it does
        # (one rebuilt from the parent bitmask may iterate differently).
        for parent in model.dag.parent_set(node):
            data[:, node] += model.weights[(parent, node)] * data[:, parent]
    return data, SufficientStats.from_data(data)


def population_covariance(model: SemModel) -> np.ndarray:
    """Analytic covariance (I - W)^{-T} (I - W)^{-1} scaled by the noise."""
    p = model.p
    w = np.zeros((p, p))
    for (tail, head), weight in model.weights.items():
        w[tail, head] = weight
    m = np.linalg.inv(np.eye(p) - w)
    return model.noise_variance * (m.T @ m)
