"""Per-layer metrics of a traced run, derived from spans and existing counters.

Every metric is reported on every workload; a layer a workload does not
exercise reads 0, and so does a ratio whose base is 0.  Units: `count` for
deterministic counts, `ratio` for ratios of counts, `x` for ratios of
times.  The comment on each group names the end-to-end metric and the
workload it should move.
"""

from __future__ import annotations

# (metric, unit, better).  BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = (
    # Move materialization: wall_s and op_p50_s on the discover workloads.
    ("moves.apply_move.calls", "count", "lower"),
    ("moves.apply_move.self_s", "s", "lower"),
    ("moves.apply_move.reject_frac", "ratio", "lower"),
    ("imset.mec_restricted_imset.calls", "count", "lower"),
    ("imset.mec_restricted_imset.self_s", "s", "lower"),
    ("imset.mec_restricted_imset.hit_ratio", "ratio", "higher"),
    ("imset.recover_mec.calls", "count", "lower"),
    ("imset.recover_mec.self_s", "s", "lower"),
    ("graphs.consistent_extension.calls", "count", "lower"),
    ("graphs.consistent_extension.self_s", "s", "lower"),
    ("moves.admissible.hit_ratio", "ratio", "higher"),
    # Search loop: wall_s on the discover workloads.
    ("search.candidates.generated", "count", "lower"),
    ("search.candidates.unique_frac", "ratio", "higher"),
    ("search.full_check.reject", "count", "lower"),
    ("search.score_eval.calls", "count", "lower"),
    ("search.score_eval.self_s", "s", "lower"),
    ("search.class_imset.calls", "count", "lower"),
    ("search.class_imset.hit_ratio", "ratio", "higher"),
    ("search.verify_pair.calls", "count", "lower"),
    ("search.steps", "count", "lower"),
    ("search.run_phase.self_s", "s", "lower"),
    # CSV ingest and CI tests: op_p50_s and wall_s on discover-skeletal.
    ("scoring.stats_from_csv.self_s", "s", "lower"),
    ("scoring.stats_from_csv.mb_per_s", "MB/s", "higher"),
    ("ci_tests.pc_skeleton.self_s", "s", "lower"),
    ("ci_tests.fisher_z_test.calls", "count", "lower"),
    ("ci_tests.fisher_z_test.self_s", "s", "lower"),
    # BIC scoring: under 2% of the discover op time.
    ("scoring.local_bic.calls", "count", "lower"),
    ("scoring.local_bic.self_s", "s", "lower"),
    ("scoring.cache_hit_ratio", "ratio", "higher"),
    # Census stages: wall_s on census-p4 only.
    ("polytope.enumerate_mecs.self_s", "s", "lower"),
    ("polytope.prefilter.self_s", "s", "lower"),
    ("polytope.prefilter.skip_frac", "ratio", "higher"),
    ("polytope.certify.self_s", "s", "lower"),
    ("polytope.lp_solved", "count", "lower"),
    ("polytope.exact_resolves", "count", "lower"),
    ("polytope.edge_yield", "ratio", "higher"),
    ("polytope.classify.self_s", "s", "lower"),
    ("lp.simplex_max.calls", "count", "lower"),
    ("lp.simplex_max.self_s", "s", "lower"),
    ("lp.simplex_max.per_call_ms", "ms", "lower"),
    ("polytope.lp_parallel_eff", "x", "higher"),
    # Op overhead outside the layers: op_p50_s on discover-skeletal.
    ("cli.other.self_s", "s", "lower"),
    ("graphs.essential_graph.self_s", "s", "lower"),
    # Input generation: setup_s on the discover workloads.
    ("simulate.self_s", "s", "lower"),
    ("trace.overhead", "x", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_ops, cache_stats: dict, scoring_counts,
                  extra: dict) -> dict:
    """{metric: (value, unit)} for every PER_LAYER metric but trace.overhead.

    `traced_ops` are the op ids whose spans count; `cache_stats` maps span
    names to summed lru_cache [hits, misses] and `scoring_counts` sums
    LocalScoreCache [hits, misses] over those ops.  `extra` carries the
    walk steps and CSV bytes (discover) or the census lp_stats and the op
    id of the multi-thread census op.
    """
    spans = tracer.per_name(traced_ops)
    zero = (0, 0, 0.0, 0.0)

    def calls(name):
        return spans.get(name, zero)[0]

    def total_s(name):
        return spans.get(name, zero)[2]

    def self_s(name):
        return spans.get(name, zero)[3]

    def hit_ratio(name):
        hits, misses = cache_stats.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    counts = tracer.counts
    lp_stats = extra.get("lp_stats", {})
    apply_calls = calls("moves.apply_move")
    apply_errors = spans.get("moves.apply_move", zero)[1]
    scored = calls("search.score_eval")
    multi = tracer.per_name([extra["multi_thread_op"]]) if "multi_thread_op" in extra else {}
    certify_multi = multi.get("polytope.certify", zero)[2]
    pairs = lp_stats.get("pairs", 0)
    values = {
        "moves.apply_move.calls": apply_calls,
        "moves.apply_move.self_s": self_s("moves.apply_move"),
        "moves.apply_move.reject_frac": _ratio(apply_errors, apply_calls),
        "imset.mec_restricted_imset.calls": calls("imset.mec_restricted_imset"),
        "imset.mec_restricted_imset.self_s": self_s("imset.mec_restricted_imset"),
        "imset.mec_restricted_imset.hit_ratio": hit_ratio("imset.mec_restricted_imset"),
        "imset.recover_mec.calls": calls("imset.recover_mec"),
        "imset.recover_mec.self_s": self_s("imset.recover_mec"),
        "graphs.consistent_extension.calls": calls("graphs.consistent_extension"),
        "graphs.consistent_extension.self_s": self_s("graphs.consistent_extension"),
        "moves.admissible.hit_ratio": hit_ratio("moves.admissible"),
        "search.candidates.generated": counts["search.candidates.generated"],
        "search.candidates.unique_frac": _ratio(counts["search.candidates.unique"],
                                                counts["search.candidates.generated"]),
        # Candidates that passed apply_move but failed the full-imset
        # delta check; only the search calls apply_move and scores in
        # discover ops.
        "search.full_check.reject": (apply_calls - apply_errors - scored) if scored else 0,
        "search.score_eval.calls": scored,
        "search.score_eval.self_s": self_s("search.score_eval"),
        "search.class_imset.calls": calls("search.class_imset"),
        "search.class_imset.hit_ratio": hit_ratio("search.class_imset"),
        "search.verify_pair.calls": calls("search.verify_pair"),
        "search.steps": extra.get("steps", 0),
        "search.run_phase.self_s": self_s("search.run_phase"),
        "scoring.stats_from_csv.self_s": self_s("scoring.stats_from_csv"),
        "scoring.stats_from_csv.mb_per_s": _ratio(extra.get("csv_bytes", 0) / 1e6,
                                                  total_s("scoring.stats_from_csv")),
        "ci_tests.pc_skeleton.self_s": self_s("ci_tests.pc_skeleton"),
        "ci_tests.fisher_z_test.calls": calls("ci_tests.fisher_z_test"),
        "ci_tests.fisher_z_test.self_s": self_s("ci_tests.fisher_z_test"),
        "scoring.local_bic.calls": calls("scoring.local_bic"),
        "scoring.local_bic.self_s": self_s("scoring.local_bic"),
        "scoring.cache_hit_ratio": _ratio(scoring_counts[0], sum(scoring_counts)),
        "polytope.enumerate_mecs.self_s": self_s("polytope.enumerate_mecs"),
        "polytope.prefilter.self_s": self_s("polytope.prefilter"),
        "polytope.prefilter.skip_frac": _ratio(lp_stats.get("prefiltered", 0), pairs),
        "polytope.certify.self_s": self_s("polytope.certify"),
        "polytope.lp_solved": lp_stats.get("lp_solved", 0),
        "polytope.exact_resolves": lp_stats.get("exact_resolves", 0),
        "polytope.edge_yield": _ratio(lp_stats.get("edges", 0), lp_stats.get("lp_solved", 0)),
        "polytope.classify.self_s": self_s("polytope.classify") + self_s("polytope.move_kinds"),
        "lp.simplex_max.calls": calls("lp.simplex_max"),
        "lp.simplex_max.self_s": self_s("lp.simplex_max"),
        "lp.simplex_max.per_call_ms": 1e3 * _ratio(total_s("lp.simplex_max"),
                                                   calls("lp.simplex_max")),
        "polytope.lp_parallel_eff": _ratio(total_s("polytope.certify"),
                                           extra.get("threads", 0) * certify_multi),
        "cli.other.self_s": self_s("cli"),
        "graphs.essential_graph.self_s": self_s("graphs.essential_graph"),
        "simulate.self_s": tracer.per_name().get("simulate", zero)[3],
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (value, units[name]) for name, value in values.items()}
