"""Snapshot tests of the public API surface.

These tests pin the exported names of the top-level packages so an
accidental rename or a dropped export fails loudly, and they check that the
plain entry points (a raw judge passed positionally to a service, the CLI's
default judge) work without any DeprecationWarning — no shims remain.
"""

import warnings

import numpy as np
import pytest


class TestExportedNames:
    def test_repro_api_surface(self):
        import repro.api

        assert sorted(repro.api.__all__) == [
            "CallCacheStats",
            "ColocationEngine",
            "EngineCacheInfo",
            "JudgeRequest",
            "JudgeResponse",
            "JudgementCore",
        ]
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_repro_cluster_surface(self):
        import repro.cluster

        assert sorted(repro.cluster.__all__) == [
            "ClusterMetrics",
            "ClusterMetricsSnapshot",
            "MicroBatcher",
            "ShardedEngine",
            "WorkerPool",
            "shard_index",
        ]
        for name in repro.cluster.__all__:
            assert getattr(repro.cluster, name) is not None

    def test_repro_core_surface(self):
        import repro.core

        assert sorted(repro.core.__all__) == [
            "CoLocationJudge",
            "FEATURIZE_CHUNK",
            "FeatureSpaceJudge",
            "ProfileKey",
            "RevisionedKeyIndex",
            "TrainableApproach",
            "TrainingStrategy",
            "UNREVISIONED",
            "featurize_in_chunks",
            "featurizer_dim",
            "pairwise_probability_matrix",
            "profile_key",
            "shared_poi_probability_matrix",
            "superseded_keys",
        ]
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_repro_registry_surface(self):
        import repro.registry

        assert sorted(repro.registry.__all__) == [
            "ComponentSpec",
            "build",
            "is_registered",
            "kinds",
            "names",
            "register",
            "spec",
        ]
        for name in repro.registry.__all__:
            assert getattr(repro.registry, name) is not None

    def test_top_level_lazy_exports(self):
        import repro
        from repro.api import ColocationEngine, JudgeRequest, JudgeResponse
        from repro.cluster import MicroBatcher, ShardedEngine

        assert repro.ColocationEngine is ColocationEngine
        assert repro.JudgeRequest is JudgeRequest
        assert repro.JudgeResponse is JudgeResponse
        assert repro.ShardedEngine is ShardedEngine
        assert repro.MicroBatcher is MicroBatcher
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestDeprecationShims:
    def test_raw_judge_positional_does_not_warn(self):
        from repro.service import LocalPeopleRecommender

        class Stub:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            recommender = LocalPeopleRecommender(Stub())
        assert recommender.engine.judge.__class__ is Stub

    def test_cli_judge_defaults_to_hisrect(self):
        from repro.cli.main import build_parser

        assert build_parser().parse_args(["train", "--dataset", "d"]).judge == "hisrect"
        args = build_parser().parse_args(["train", "--dataset", "d", "--judge", "tg-ti-c"])
        assert args.judge == "tg-ti-c"
