"""In-memory span tracer that wraps cimwalk functions from the outside.

Each wrapped function is replaced at the module attribute where its caller
looks it up (``from .moves import apply_move`` makes ``search.apply_move``
the name ``search`` calls), so ``src/`` stays untouched.  A span records
its name, start, end, parent span and op id in flat arrays; self times are
computed once the run ends.
"""

from __future__ import annotations

import array
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (span name, modules whose attribute is replaced, attribute name).  Every
# caller namespace that imports the function by name is listed, so the span
# sees every call made from cimwalk code.
WRAPPED = (
    ("scoring.stats_from_csv", ("cli",), "stats_from_csv"),
    ("search.driver", ("cli",), "greedy_cim"),
    ("search.driver", ("cli",), "skeletal_greedy_cim"),
    ("search.driver", ("cli",), "recurrent_phased_greedy_cim"),
    ("graphs.essential_graph", ("cli",), "essential_graph"),
    ("scoring.score_mec", ("cli", "search"), "score_mec"),
    ("ci_tests.pc_skeleton", ("search",), "pc_skeleton"),
    ("ci_tests.fisher_z_test", ("ci_tests",), "fisher_z_test"),
    ("search.run_phase", ("search",), "_run_phase"),
    ("search.class_imset", ("search",), "_class_imset"),
    ("search.score_eval", ("search",), "_extension_delta"),
    ("search.verify_pair", ("search",), "verify_pair"),
    ("moves.verify_pair", ("moves",), "verify_pair"),
    ("moves.apply_move", ("search", "moves", "scoring"), "apply_move"),
    ("moves.admissible", ("moves",), "_admissible"),
    ("imset.mec_restricted_imset", ("moves",), "mec_restricted_imset"),
    ("imset.recover_mec", ("moves",), "recover_mec"),
    ("imset.full_imset", ("search", "moves", "polytope"), "full_imset"),
    ("graphs.consistent_extension",
     ("moves", "search", "scoring", "polytope", "cli"), "consistent_extension"),
    ("scoring.local_bic", ("scoring",), "local_bic"),
    ("polytope.enumerate_mecs", ("cli",), "enumerate_mecs"),
    ("polytope.certify", ("polytope",), "certify_all_edges"),
    ("polytope.prefilter", ("polytope",), "_midpoint_prefilter"),
    ("lp.simplex_max", ("polytope",), "simplex_max"),
    ("polytope.classify", ("polytope",), "classify_edges"),
    ("polytope.move_kinds", ("polytope",), "_pair_move_kinds"),
)

# Span names whose lru_cache statistics give a hit ratio, and the module
# that defines the cached function.
CACHED = {
    "search.class_imset": ("search", "_class_imset"),
    "moves.admissible": ("moves", "_admissible"),
    "imset.mec_restricted_imset": ("imset", "mec_restricted_imset"),
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.error = array.array("b")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.enabled = False
        self.local_caches: list = []
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.error.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        if not self.enabled:
            yield
            return
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.error[idx] = 1
                raise
            finally:
                tracer._close(idx)

        return traced

    def install(self, modules: dict) -> None:
        """Replace every WRAPPED attribute; `modules` maps short names to modules."""
        for name, owners, attr in WRAPPED:
            for owner in owners:
                mod = modules[owner]
                original = getattr(mod, attr)
                self._undo.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
        search = modules["search"]
        original = search._candidates
        self._undo.append((search, "_candidates", original))
        search._candidates = self._count_candidates(original)
        for owner in ("cli", "search", "scoring"):
            mod = modules[owner]
            original = mod.LocalScoreCache
            self._undo.append((mod, "LocalScoreCache", original))
            setattr(mod, "LocalScoreCache", self._track_caches(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _count_candidates(self, gen_fn):
        tracer = self

        def counted(mec, phase, config):
            seen = set()
            for move in gen_fn(mec, phase, config):
                if tracer.enabled:
                    tracer.counts["search.candidates.generated"] += 1
                    key = (move.added, move.removed)
                    if key not in seen:
                        seen.add(key)
                        tracer.counts["search.candidates.unique"] += 1
                yield move

        return counted

    def _track_caches(self, cls):
        tracer = self

        def make(*args, **kwargs):
            cache = cls(*args, **kwargs)
            if tracer.enabled:
                tracer.local_caches.append(cache)
            return cache

        return make

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "error": np.array(self.error, dtype=np.int8),
        }

    def per_name(self, ops=None) -> dict:
        """{span name: (calls, errors, total seconds, self seconds)}.

        A span's self time is its duration less that of its child spans.
        `ops` restricts the result to spans of those op ids.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        keep = np.ones(len(dur), dtype=bool) if ops is None else np.isin(a["op"], list(ops))
        k = len(self.names)
        names = a["name"][keep]
        calls = np.bincount(names, minlength=k)
        errors = np.bincount(names, weights=a["error"][keep], minlength=k)
        total = np.bincount(names, weights=dur[keep], minlength=k)
        own = np.bincount(names, weights=own[keep], minlength=k)
        return {self.names[i]: (int(calls[i]), int(errors[i]), float(total[i]),
                                float(own[i]))
                for i in range(k) if calls[i]}

    def save(self, path: str) -> None:
        tmp = path + ".tmp.npz"
        np.savez_compressed(tmp, names=np.array(self.names), **self.arrays())
        os.replace(tmp, path)
