"""Graph primitives: DAGs, undirected graphs, Markov equivalence classes.

Nodes are 0-based integers.  All graph objects are immutable and hashable,
so they can be cached and used as dictionary keys throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional


class GraphError(ValueError):
    """Raised for structurally invalid graph input."""


class CycleError(GraphError):
    """Raised when arcs that must form a DAG contain a directed cycle."""


def _check_node(i: int, p: int) -> None:
    if not (0 <= i < p):
        raise GraphError(f"node {i} out of range for p={p}")


def _canon_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class UndirectedGraph:
    """A simple undirected graph on p nodes; edges stored as sorted pairs."""

    p: int
    edges: frozenset

    @staticmethod
    def from_edges(p: int, pairs: Iterable) -> "UndirectedGraph":
        edges = set()
        for a, b in pairs:
            _check_node(a, p)
            _check_node(b, p)
            if a == b:
                raise GraphError(f"self-loop at node {a}")
            e = _canon_pair(a, b)
            if e in edges:
                raise GraphError(f"duplicate edge {e}")
            edges.add(e)
        return UndirectedGraph(p, frozenset(edges))

    def has_edge(self, a: int, b: int) -> bool:
        return _canon_pair(a, b) in self.edges

    @cached_property
    def neighbor_masks(self) -> tuple:
        """The neighbours of each node as a bitmask, bit k for neighbour k."""
        return _adjacency(self.p, self.edges)

    def neighbors(self, i: int) -> frozenset:
        return frozenset(_bits(self.neighbor_masks[i]))

    def degree(self, i: int) -> int:
        return self.neighbor_masks[i].bit_count()

    def remove_edge(self, a: int, b: int) -> "UndirectedGraph":
        e = _canon_pair(a, b)
        if e not in self.edges:
            raise GraphError(f"no edge {e}")
        return UndirectedGraph(self.p, self.edges - {e})

    def is_connected(self) -> bool:
        adj = self.neighbor_masks
        seen = frontier = 1 if adj else 0
        while frontier:
            reach = 0
            for x in _bits(frontier):
                reach |= adj[x]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.p) - 1

    def is_tree(self) -> bool:
        return len(self.edges) == self.p - 1 and self.is_connected()

    def is_single_cycle(self) -> bool:
        return (
            self.p >= 3
            and len(self.edges) == self.p
            and self.is_connected()
            and all(self.degree(i) == 2 for i in range(self.p))
        )


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph given by per-node parent sets.

    Construction validates acyclicity, so every Dag instance is a DAG.
    """

    p: int
    parents: tuple

    def __post_init__(self):
        if len(self.parents) != self.p:
            raise GraphError("parents tuple length must equal p")
        for i, pa in enumerate(self.parents):
            for k in pa:
                _check_node(k, self.p)
                if k == i:
                    raise GraphError(f"self-loop at node {i}")
                if i in self.parents[k]:
                    raise GraphError(f"both orientations present between {i} and {k}")
        if not _acyclic(self.parent_masks):
            raise CycleError("arcs contain a directed cycle")

    @staticmethod
    def from_arcs(p: int, arcs: Iterable) -> "Dag":
        parents = [set() for _ in range(p)]
        seen = set()
        for a, b in arcs:
            _check_node(a, p)
            _check_node(b, p)
            if (a, b) in seen:
                raise GraphError(f"duplicate arc {(a, b)}")
            seen.add((a, b))
            parents[b].add(a)
        return Dag(p, tuple(frozenset(s) for s in parents))

    def arcs(self) -> tuple:
        out = []
        for head in range(self.p):
            for tail in sorted(self.parents[head]):
                out.append((tail, head))
        return tuple(sorted(out))

    def parent_set(self, i: int) -> frozenset:
        return self.parents[i]

    @cached_property
    def parent_masks(self) -> tuple:
        """The parent set of each node as a bitmask, bit k for parent k."""
        return tuple(sum(1 << k for k in pa) for pa in self.parents)

    def has_arc(self, a: int, b: int) -> bool:
        return a in self.parents[b]

    def adjacent(self, a: int, b: int) -> bool:
        return a in self.parents[b] or b in self.parents[a]

    def reverse_arc(self, a: int, b: int) -> "Dag":
        """Return the graph with arc a->b replaced by b->a (may raise CycleError)."""
        if not self.has_arc(a, b):
            raise GraphError(f"no arc {(a, b)}")
        parents = list(self.parents)
        parents[b] = parents[b] - {a}
        parents[a] = parents[a] | {b}
        return Dag(self.p, tuple(parents))

    def add_arc(self, a: int, b: int) -> "Dag":
        if self.adjacent(a, b):
            raise GraphError(f"nodes {a},{b} already adjacent")
        parents = list(self.parents)
        parents[b] = parents[b] | {a}
        return Dag(self.p, tuple(parents))

    def remove_arc(self, a: int, b: int) -> "Dag":
        if not self.has_arc(a, b):
            raise GraphError(f"no arc {(a, b)}")
        parents = list(self.parents)
        parents[b] = parents[b] - {a}
        return Dag(self.p, tuple(parents))


def topological_order_or_none(p: int, arcs: Iterable) -> Optional[list]:
    """Kahn's order on parent bitmasks, smallest ready node first; None on a cycle."""
    parents = [0] * p
    for a, b in arcs:
        parents[b] |= 1 << a
    order, done = [], 0
    while len(order) < p:
        x = next((x for x, pa in enumerate(parents)
                  if not (done >> x & 1 or pa & ~done)), None)
        if x is None:
            return None
        order.append(x)
        done |= 1 << x
    return order


def is_acyclic(p: int, arcs: Iterable) -> bool:
    return topological_order_or_none(p, arcs) is not None


def topological_order(dag: Dag) -> list:
    order = topological_order_or_none(dag.p, dag.arcs())
    assert order is not None
    return order


@dataclass(frozen=True)
class VStructure:
    """An induced collider a -> collider <- b with non-adjacent tails a, b."""

    collider: int
    tails: tuple

    def __post_init__(self):
        if self.tails[0] >= self.tails[1]:
            raise GraphError("tails must be a sorted pair")

    @cached_property
    def mask(self) -> int:
        """The three nodes as a bitmask, bit x for node x."""
        return 1 << self.collider | 1 << self.tails[0] | 1 << self.tails[1]


@dataclass(frozen=True)
class Mec:
    """A Markov equivalence class given by skeleton and v-structures.

    Construction checks each v-structure against the skeleton (tails adjacent
    to the collider, tails themselves non-adjacent) but not realizability;
    use consistent_extension to test whether some DAG induces this class.
    """

    skeleton: UndirectedGraph
    vstructs: frozenset

    def __post_init__(self):
        edges = self.skeleton.edges
        for vs in self.vstructs:
            a, b = vs.tails
            if _canon_pair(a, vs.collider) not in edges or _canon_pair(b, vs.collider) not in edges:
                raise GraphError(f"v-structure {vs} tails not adjacent to collider")
            if (a, b) in edges:
                raise GraphError(f"v-structure {vs} tails are adjacent")

    @property
    def p(self) -> int:
        return self.skeleton.p


def skeleton(dag: Dag) -> UndirectedGraph:
    return UndirectedGraph(dag.p, frozenset(_canon_pair(a, b) for a, b in dag.arcs()))


def v_structures(dag: Dag) -> frozenset:
    return mec_of(dag).vstructs


def mec_of(dag: Dag) -> Mec:
    skel = skeleton(dag)
    return Mec(skel, _vstructures(dag.parent_masks, skel.neighbor_masks))


def markov_equivalent(g: Dag, h: Dag) -> bool:
    if g.p != h.p:
        raise GraphError("graphs have different node counts")
    return mec_of(g) == mec_of(h)


def _required_arcs(mec: Mec) -> tuple:
    """Parent and child bitmasks of the arcs the class's v-structures
    require, and neighbour bitmasks of the skeleton edges left undirected."""
    parents, children = [0] * mec.p, [0] * mec.p
    for vs in mec.vstructs:
        a, b = vs.tails
        parents[vs.collider] |= 1 << a | 1 << b
        children[a] |= 1 << vs.collider
        children[b] |= 1 << vs.collider
    und = [a & ~(pa | ch) for a, pa, ch in zip(mec.skeleton.neighbor_masks, parents, children)]
    return parents, children, und


@lru_cache(maxsize=1_000_000)
def consistent_extension(mec: Mec) -> Optional[Dag]:
    """Find a DAG inducing the given class, or None if there is none.

    Peels sink candidates: a node with no outgoing required arc whose every
    undirected neighbor is adjacent to all of its other remaining neighbors.
    Orienting the undirected edges of such a node into it creates no new
    v-structure.  Smallest-index candidate is taken, so the result is
    deterministic.

    A pattern whose required arcs meet at a collider the class does not list
    is rejected before the peel.  That test is exact, so the DAG needs no
    re-check: a peeled node's undirected neighbours, which become its parents,
    are adjacent to all its other remaining neighbours, so only two required
    parents can be non-adjacent; and the peel orients each skeleton edge once.
    """
    p = mec.p
    adj = mec.skeleton.neighbor_masks
    parents, children, und = _required_arcs(mec)
    if any(pa & ch for pa, ch in zip(parents, children)):
        return None  # some pair is required both ways
    if _vstructure_key(parents, adj).bit_count() != len(mec.vstructs):
        return None  # two required arcs meet at an unlisted collider
    left = (1 << p) - 1
    while left:
        for x in _bits(left):
            nb = adj[x] & left
            if not children[x] & left and all(nb & ~adj[y] == 1 << y
                                              for y in _bits(und[x] & left)):
                break
        else:
            return None
        parents[x] |= und[x] & left
        left ^= 1 << x
    return Dag(p, tuple(frozenset(_bits(pa)) for pa in parents))


@dataclass(frozen=True)
class PartiallyDirectedGraph:
    """Mixed graph with directed arcs and undirected edges (for CPDAGs)."""

    p: int
    arcs: frozenset
    undirected: frozenset

    def pair_status(self, a: int, b: int) -> str:
        if _canon_pair(a, b) in self.undirected:
            return "undirected"
        if (a, b) in self.arcs:
            return "forward"
        if (b, a) in self.arcs:
            return "backward"
        return "absent"


def essential_graph(mec: Mec) -> PartiallyDirectedGraph:
    """The CPDAG of the class: v-structure arcs closed under the Meek rules.

    The rules only orient edges that every DAG of a realizable class
    shares, so the order they are applied in does not change the closure.
    """
    if consistent_extension(mec) is None:
        raise GraphError("class is not realizable by any DAG")
    p = mec.p
    adj = mec.skeleton.neighbor_masks
    pa, ch, und = _required_arcs(mec)

    def forced(x, y):
        # x - y becomes x -> y by, one line each below:
        # rule 1: z -> x with z and y non-adjacent
        # rule 2: x -> z -> y
        # rule 3: x - z1 -> y and x - z2 -> y with z1 and z2 non-adjacent
        # rule 4: x - d -> c -> y with x adjacent to c, d and y non-adjacent
        both = und[x] & pa[y]
        return (pa[x] & ~adj[y]
                or ch[x] & pa[y]
                or any(both & ~adj[z] != 1 << z for z in _bits(both))
                or any(ch[d] & pa[y] & adj[x] for d in _bits(und[x] & ~adj[y] & ~(1 << y))))

    changed = True
    while changed:
        changed = False
        for x in range(p):
            for y in _bits(und[x]):
                if forced(x, y):
                    pa[y] |= 1 << x
                    ch[x] |= 1 << y
                    und[x] ^= 1 << y
                    und[y] ^= 1 << x
                    changed = True
    return PartiallyDirectedGraph(
        p, frozenset((a, y) for y in range(p) for a in _bits(pa[y])),
        frozenset((x, y) for x in range(p) for y in _bits(und[x]) if x < y))


def cpdag_of_dag(dag: Dag) -> PartiallyDirectedGraph:
    return essential_graph(mec_of(dag))


def shd(a: Mec, b: Mec) -> int:
    """Structural Hamming distance between the CPDAGs of two classes.

    One unit per unordered node pair whose status (absent, undirected,
    directed either way) differs.
    """
    if a.p != b.p:
        raise GraphError("classes have different node counts")
    ga = essential_graph(a)
    gb = essential_graph(b)
    count = 0
    for i, j in itertools.combinations(range(a.p), 2):
        if ga.pair_status(i, j) != gb.pair_status(i, j):
            count += 1
    return count


def parse_graph_text(text: str) -> tuple:
    """Parse the plain graph format: 'p <n>' then arc ('a -> b') or edge ('a -- b') lines.

    Returns (p, arcs, edges) with arcs as (tail, head) pairs and edges as
    sorted pairs.  Rejects self-loops and duplicate node pairs.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    try:
        if len(head) != 2 or head[0] != "p":
            raise ValueError
        p = int(head[1])
    except ValueError:
        raise GraphError("first line must be 'p <n>'") from None
    if p < 0:
        raise GraphError("p must be non-negative")
    arcs = []
    edges = []
    seen_pairs = set()
    for ln in lines[1:]:
        directed = "->" in ln
        sep = "->" if directed else "--"
        parts = [s.strip() for s in ln.split(sep)]
        if len(parts) != 2:
            raise GraphError(f"bad line: {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"bad line: {ln!r}") from None
        _check_node(a, p)
        _check_node(b, p)
        if a == b:
            raise GraphError(f"self-loop at node {a}")
        pair = _canon_pair(a, b)
        if pair in seen_pairs:
            raise GraphError(f"duplicate pair {pair}")
        seen_pairs.add(pair)
        if directed:
            arcs.append((a, b))
        else:
            edges.append(pair)
    return p, arcs, edges


def format_graph_text(p: int, arcs: Iterable = (), edges: Iterable = ()) -> str:
    lines = [f"p {p}"]
    for a, b in sorted(arcs):
        lines.append(f"{a} -> {b}")
    for a, b in sorted(_canon_pair(x, y) for x, y in edges):
        lines.append(f"{a} -- {b}")
    return "\n".join(lines) + "\n"


def dag_from_text(text: str) -> Dag:
    p, arcs, edges = parse_graph_text(text)
    if edges:
        raise GraphError("expected a fully directed graph")
    return Dag.from_arcs(p, arcs)


def undirected_from_text(text: str) -> UndirectedGraph:
    p, arcs, edges = parse_graph_text(text)
    if arcs:
        raise GraphError("expected an undirected graph")
    return UndirectedGraph.from_edges(p, edges)


def _bits(mask: int) -> Iterator[int]:
    """The nodes of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency(p: int, edges: Iterable) -> tuple:
    """Neighbour bitmask of each node."""
    adj = [0] * p
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def _acyclic(parents) -> bool:
    """Whether parent bitmasks describe a DAG: peeling its sinks (the nodes
    that are no remaining node's parent) empties it."""
    left = (1 << len(parents)) - 1
    while left:
        has_child = 0
        for x, pa in enumerate(parents):
            if left >> x & 1:
                has_child |= pa
        if not left & ~has_child:
            return False
        left &= has_child
    return True


def orientation_masks(g: UndirectedGraph) -> Iterator[tuple]:
    """Parent bitmasks of every acyclic orientation of g, in a fixed order.

    The edges are taken sorted and their orientation bits run as
    itertools.product((0, 1), ...) runs them, bit 0 orienting (a, b) as
    a -> b.
    """
    p = g.p
    edges = sorted(g.edges)
    m = len(edges)
    for code in range(1 << m):
        parents = [0] * p
        for k, (a, b) in enumerate(edges):
            if code >> (m - 1 - k) & 1:
                parents[a] |= 1 << b
            else:
                parents[b] |= 1 << a
        if _acyclic(parents):
            yield tuple(parents)


def _vstructure_key(parents: tuple, adj: list) -> int:
    """The v-structures of an orientation as one int: bit (j*p + a)*p + b
    for each a -> j <- b with a < b and a, b non-adjacent."""
    p = len(parents)
    key = 0
    for j, rest in enumerate(parents):
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            lone = rest & ~adj[a]
            if lone:
                key |= lone << (j * p + a) * p
    return key


def _vstructures(parents: tuple, adj: list) -> frozenset:
    """The v-structures of an orientation, decoded from _vstructure_key."""
    p = len(parents)
    return frozenset(VStructure(pos // (p * p), (pos // p % p, pos % p))
                     for pos in _bits(_vstructure_key(parents, adj)))


def skeleton_classes(g: UndirectedGraph) -> list:
    """Each class with skeleton g once, in order of first orientation, as
    (Mec, parent bitmasks of that first orientation).

    Orientations with the same skeleton are equivalent iff they have the
    same v-structures, so the classes are keyed by _vstructure_key and a
    Mec is built only for the first orientation of each.
    """
    adj = g.neighbor_masks
    first = {}
    for parents in orientation_masks(g):
        first.setdefault(_vstructure_key(parents, adj), parents)
    return [(Mec(g, _vstructures(parents, adj)), parents) for parents in first.values()]


def acyclic_orientations(g: UndirectedGraph) -> Iterator[Dag]:
    """Every acyclic orientation of g, in the order of orientation_masks."""
    for parents in orientation_masks(g):
        yield Dag(g.p, tuple(frozenset(_bits(mask)) for mask in parents))


def _skeletons(p: int) -> Iterator[UndirectedGraph]:
    """Every undirected graph on p nodes, in a fixed order."""
    pairs = list(itertools.combinations(range(p), 2))
    for keep in itertools.product((False, True), repeat=len(pairs)):
        yield UndirectedGraph.from_edges(p, itertools.compress(pairs, keep))


def all_dags(p: int) -> Iterator[Dag]:
    """Yield every DAG on p nodes, as the acyclic orientations of each of the
    2^C(p,2) skeletons (use only for small p)."""
    for g in _skeletons(p):
        yield from acyclic_orientations(g)


def all_classes(p: int) -> list:
    """skeleton_classes of every skeleton on p nodes, in the order of all_dags."""
    return [c for g in _skeletons(p) for c in skeleton_classes(g)]


def all_mecs(p: int) -> list:
    """All Markov equivalence classes on p nodes, in order of first DAG."""
    return [mec for mec, _ in all_classes(p)]
