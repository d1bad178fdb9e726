"""Tests for the skewed serving-load generator."""

import pytest

from repro.api.engine import EngineCacheInfo
from repro.cluster import ClusterMetrics
from repro.cluster.loadgen import (
    ComparisonReport,
    LoadConfig,
    ServingRun,
    TierReport,
    _zipf_probabilities,
    generate_requests,
)
from repro.errors import ConfigurationError


class TestGenerateRequests:
    def test_shape_and_determinism(self, small_registry):
        config = LoadConfig(num_users=8, num_requests=12, pairs_per_request=3, seed=9)
        corpus = ["coffee by the park", "museum day"]
        requests = generate_requests(small_registry, corpus, config)
        assert len(requests) == 12
        assert all(len(pairs) == 3 for pairs in requests)
        for pairs in requests:
            # One fresh query profile on the left, never self-paired.
            assert len({pair.left.uid for pair in pairs}) == 1
            assert all(pair.left.uid != pair.right.uid for pair in pairs)
        again = generate_requests(small_registry, corpus, config)
        assert [
            [(p.left.uid, p.right.uid, p.left.ts) for p in pairs] for pairs in requests
        ] == [[(p.left.uid, p.right.uid, p.left.ts) for p in pairs] for pairs in again]

    def test_rejects_degenerate_user_mix(self, small_registry):
        config = LoadConfig(num_users=1, num_requests=2, pairs_per_request=1)
        with pytest.raises(ConfigurationError, match="num_users"):
            generate_requests(small_registry, ["hi"], config)

    def test_zipf_probabilities_are_skewed_and_normalised(self):
        probabilities = _zipf_probabilities(10, s=1.1)
        assert probabilities[0] > probabilities[-1]
        assert abs(probabilities.sum() - 1.0) < 1e-12


def _run(label: str) -> ServingRun:
    return ServingRun(label=label, elapsed_s=1.0, requests=4, pairs=8, cache=EngineCacheInfo())


def _tier(label: str, **checks) -> TierReport:
    clean = {"exact": True, "drift": 1e-16, "serve_exact": True, "serve_drift": 0.0}
    return TierReport(run=_run(label), metrics=ClusterMetrics().snapshot(), **{**clean, **checks})


class TestComparisonReportFailures:
    def test_a_clean_report_has_no_failures(self):
        report = ComparisonReport(
            single=_run("single engine"), tiers=(_tier("sharded x2"), _tier("workers x2"))
        )
        assert report.failures() == []

    def test_each_broken_check_is_named_with_its_tier(self):
        report = ComparisonReport(
            single=_run("single engine"),
            tiers=(_tier("sharded x2"), _tier("workers x2", exact=False, drift=1e-9)),
        )
        failures = report.failures()
        assert len(failures) == 2
        assert all(failure.startswith("workers x2:") for failure in failures)
        assert "diverged" in failures[0]
        assert "drifted by 1.00e-09" in failures[1]
