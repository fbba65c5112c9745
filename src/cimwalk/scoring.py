"""Gaussian BIC scoring over DAGs and Markov equivalence classes.

Scores are decomposable: the score of a DAG is the sum of local node
scores, each depending only on the node and its parent set.  Markov
equivalent DAGs share every conditional-variance factorization, so the
class score is well defined and computed through any consistent
extension.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import Dag, GraphError, Mec, consistent_extension
from .imset import nodes_of
from .moves import Move, apply_move

__all__ = [
    "ScoringError",
    "SufficientStats",
    "LocalScoreCache",
    "local_bic",
    "score_dag",
    "score_mec",
    "score_delta",
    "load_csv",
    "stats_from_csv",
    "require_full_rank",
]


class ScoringError(Exception):
    """Raised for degenerate statistics or invalid scoring requests."""


# Singular-value floor below which a (correlation) block counts as singular.
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SufficientStats:
    """Sample size, mean vector and MLE covariance (divisor n, not n-1)."""

    n: int
    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ScoringError("sample size must be at least 1")
        p = len(self.mean)
        if len(self.cov) != p or any(len(row) != p for row in self.cov):
            raise ScoringError("covariance shape does not match mean length")

    @property
    def p(self) -> int:
        return len(self.mean)

    def cov_matrix(self) -> np.ndarray:
        return self._cov_array

    @cached_property
    def _cov_array(self) -> np.ndarray:
        # Built once, read-only; not a field, so == and hash ignore it.
        cov = np.array(self.cov, dtype=float)
        cov.flags.writeable = False
        return cov

    @classmethod
    def from_data(cls, data) -> "SufficientStats":
        x = np.asarray(data, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ScoringError("data must be a nonempty 2-d array")
        n = x.shape[0]
        mean = x.mean(axis=0)
        centered = x - mean
        cov = centered.T @ centered / n
        return cls(n=n, mean=tuple(map(float, mean)),
                   cov=tuple(tuple(map(float, row)) for row in cov))

    @classmethod
    def from_covariance(cls, cov, n: int,
                        mean: Optional[Sequence[float]] = None) -> "SufficientStats":
        c = np.asarray(cov, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ScoringError("covariance must be square")
        if mean is None:
            mean = [0.0] * c.shape[0]
        if len(mean) != c.shape[0]:
            raise ScoringError("mean length does not match covariance")
        return cls(n=n, mean=tuple(float(v) for v in mean),
                   cov=tuple(tuple(map(float, row)) for row in c))


def _parse_rows(lines) -> np.ndarray:
    return np.loadtxt(lines, dtype=float, delimiter=",", comments=None,
                      quotechar='"', ndmin=2)


def _first_fault(lines: list, first: int, path) -> str:
    # Run only after the bulk parse failed or read a non-finite value:
    # re-parse line by line to name the first bad line.
    width = None
    for lineno, line in enumerate(lines[first:], first + 1):
        if not line:
            continue
        try:
            row = _parse_rows([line])[0]
        except ValueError as exc:
            return f"line {lineno} of {path}: {str(exc).split(' at row ')[0]}"
        width = width or len(row)
        if len(row) != width:
            return f"line {lineno} of {path} has {len(row)} cells, expected {width}"
        if not np.isfinite(row).all():
            col = int(np.argmin(np.isfinite(row)))
            return (f"non-finite value {row[col]} at line {lineno}, "
                    f"column {col + 1} of {path}")
    return f"malformed CSV in {path}"


def load_csv(path) -> np.ndarray:
    """Read a numeric CSV, one row per sample, into a float array.

    A first line that does not parse as numbers is a header and is
    skipped, as are empty lines.  Ragged rows, empty, non-numeric and
    non-finite cells raise ScoringError naming the 1-based line.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScoringError(f"cannot read {path}: {exc}")
    head, _, rest = text.partition("\n")
    first = 0
    if head:
        try:
            _parse_rows([head])
        except ValueError:
            first = 1
    body = rest if first else text
    if not body.strip("\n"):
        raise ScoringError(f"no data rows in {path}")
    try:
        # A stream, not a list of lines: a quoted cell that spans lines
        # must fail to parse, not be glued into one number.
        data = _parse_rows(io.StringIO(body))
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        raise ScoringError(_first_fault(text.split("\n"), first, path))
    return data


def stats_from_csv(path) -> SufficientStats:
    return SufficientStats.from_data(load_csv(path))


def require_full_rank(stats: SufficientStats, source) -> None:
    """Reject data whose covariance is rank deficient (a constant column,
    an exactly collinear column, or too few rows), naming the columns.

    The test runs on the correlation scale, so a column measured in tiny
    units is not mistaken for a constant one.
    """
    cov = stats.cov_matrix()
    scale = np.sqrt(np.diag(cov))
    scale[scale == 0.0] = 1.0
    corr = cov / np.outer(scale, scale)
    if np.linalg.matrix_rank(corr, tol=_RANK_TOL) < stats.p:
        bad = _collinear_subset(corr, tuple(range(stats.p)))
        raise ScoringError(
            f"degenerate data in {source}: covariance of {stats.p} columns from "
            f"{stats.n} rows is rank deficient; columns {bad} are constant or "
            "linearly dependent on earlier columns")


def _collinear_subset(sub: np.ndarray, parents: tuple[int, ...]) -> list[int]:
    # Greedy rank sweep: a parent whose column fails to grow the rank of
    # the leading principal block is linearly dependent on its
    # predecessors.
    dependent: list[int] = []
    kept: list[int] = []
    for pos, node in enumerate(parents):
        trial = kept + [pos]
        block = sub[np.ix_(trial, trial)]
        if np.linalg.matrix_rank(block, tol=_RANK_TOL) == len(trial):
            kept.append(pos)
        else:
            dependent.append(node)
    return dependent


def _residual_variance(node: int, parents: tuple[int, ...],
                       cov: np.ndarray) -> float:
    if not parents:
        return float(cov[node, node])
    idx = list(parents)
    block = cov[np.ix_(idx, idx)]
    rhs = cov[idx, node]
    try:
        coef = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        bad = _collinear_subset(block, parents)
        raise ScoringError(
            f"singular parent covariance for node {node}: "
            f"parents {sorted(bad) or list(parents)} are collinear")
    return float(cov[node, node] - rhs @ coef)


def local_bic(node: int, parents: Iterable[int], stats: SufficientStats) -> float:
    """BIC contribution of one node given its parent set.

    Uses the profiled Gaussian log-likelihood with the residual variance
    obtained from the covariance by Schur complement, penalized by
    lambda * (|parents| + 1) with lambda = log(n) / 2.
    """
    pa = tuple(sorted(set(parents)))
    p = stats.p
    if not 0 <= node < p:
        raise ScoringError(f"node {node} out of range for p={p}")
    if node in pa:
        raise ScoringError(f"node {node} cannot be its own parent")
    if any(not 0 <= q < p for q in pa):
        raise ScoringError(f"parent out of range in {pa}")
    cov = stats.cov_matrix()
    sigma2 = _residual_variance(node, pa, cov)
    if sigma2 <= 0.0:
        raise ScoringError(
            f"zero residual variance for node {node} given parents {list(pa)}; "
            "data are deterministic along this direction")
    n = stats.n
    penalty = 0.5 * math.log(n) * (len(pa) + 1)
    return -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0) - penalty


@dataclass
class LocalScoreCache:
    """Memo table for local scores keyed by (node, canonical parent set)."""

    stats: SufficientStats
    hits: int = 0
    misses: int = 0
    _table: dict = field(default_factory=dict, repr=False)
    _mobius: dict = field(default_factory=dict, repr=False)

    def local(self, node: int, parents: Iterable[int]) -> float:
        key = (node, tuple(sorted(set(parents))))
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        value = local_bic(key[0], key[1], self.stats)
        self._table[key] = value
        return value

    def mobius(self, key: int) -> float:
        """Coefficient r(S) of imset entry S = key in the (affine) class score:
        the sum over T within S - {i} of (-1)^(|S|-1-|T|) local(i, T), i = max(S),
        taken in (size, lex) order of T."""
        value = self._mobius.get(key)
        if value is None:
            *rest, i = nodes_of(key)
            value = self._mobius[key] = sum(
                (-1) ** (len(rest) - r) * self.local(i, sub)
                for r in range(len(rest) + 1)
                for sub in itertools.combinations(rest, r))
        return value

    def __len__(self) -> int:
        return len(self._table)


def _cache_for(stats: SufficientStats,
               cache: Optional[LocalScoreCache]) -> LocalScoreCache:
    if cache is None:
        return LocalScoreCache(stats)
    if cache.stats is not stats and cache.stats != stats:
        raise ScoringError("cache was built for different statistics")
    return cache


def score_dag(dag: Dag, stats: SufficientStats,
              cache: Optional[LocalScoreCache] = None) -> float:
    if dag.p != stats.p:
        raise ScoringError(f"graph has {dag.p} nodes, stats have {stats.p}")
    table = _cache_for(stats, cache)
    return sum(table.local(i, dag.parent_set(i)) for i in range(dag.p))


def score_mec(mec: Mec, stats: SufficientStats,
              cache: Optional[LocalScoreCache] = None) -> float:
    dag = consistent_extension(mec)
    if dag is None:
        raise GraphError("class admits no consistent extension")
    return score_dag(dag, stats, cache)


def class_delta(source: Mec, target: Mec, cache: LocalScoreCache) -> float:
    """Score change from the source class to the target class.

    Only nodes whose parent sets differ between the two consistent
    extensions are rescored; identical local terms cancel exactly.
    """
    before = consistent_extension(source)
    after = consistent_extension(target)
    if before is None or after is None:
        raise GraphError("class admits no consistent extension")
    delta = 0.0
    for i, (pa_b, pa_a) in enumerate(zip(before.parents, after.parents)):
        if pa_b != pa_a:
            delta += cache.local(i, pa_a) - cache.local(i, pa_b)
    return delta


def delta_and_target(source: Mec, move: Move, stats: SufficientStats,
                     cache: Optional[LocalScoreCache] = None):
    """Score change of a move together with the target class."""
    table = _cache_for(stats, cache)
    target = apply_move(source, move)
    return class_delta(source, target, table), target


def score_delta(source: Mec, move: Move, stats: SufficientStats,
                cache: Optional[LocalScoreCache] = None) -> float:
    return delta_and_target(source, move, stats, cache)[0]
