"""The Möbius form of a move's score change, the reference for the search
screen's local-term estimate (cimwalk.search._estimate).

The BIC score is affine in the characteristic imset: a class scores the
empty graph's score plus r(S) for each entry S that is one, where r(S) is
the alternating sum of local(i, T) over the subsets T of S - {i}, taken
with i = max(S).  A move's score change is then r summed over the entries
it adds minus r summed over the entries it removes.  Each r(S) here costs
2^(|S|-1) local scores; nothing is telescoped.
"""

import itertools

from cimwalk.imset import key_of, nodes_of


def mobius(cache, key: int) -> float:
    """r(S) of the subset key S, in (size, lex) order of T."""
    *rest, i = nodes_of(key)
    return sum((-1) ** (len(rest) - r) * cache.local(i, key_of(sub))
               for r in range(len(rest) + 1)
               for sub in itertools.combinations(rest, r))


def mobius_sum(move, cache) -> float:
    """r summed over the move's added entries minus its removed ones."""
    return (sum(mobius(cache, key) for key in move.added)
            - sum(mobius(cache, key) for key in move.removed))
