"""The judges' direct-call feature memos: bounded, deduplicating, copyable.

Both the HisRect judge and Comp2Loc keep a :class:`repro.store.HotStore` of
frozen feature rows, filled through :func:`repro.store.resolve_rows`; a
judge is deep-copied per shard and pickled into worker bundles, so its memo
must survive both.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.colocation import HisRectCoLocationJudge


@pytest.fixture
def profiles(tiny_dataset):
    distinct = {}
    for profile in tiny_dataset.train.labeled_profiles:
        distinct.setdefault((profile.uid, profile.ts), profile)
    selected = list(distinct.values())[:10]
    assert len(selected) == 10
    return selected


def _count_featurized(monkeypatch, judge):
    """Record the batch size of every featurize_profiles call on ``judge``."""
    batches = []
    featurize = judge.featurize_profiles

    def counting(batch):
        batches.append(len(batch))
        return featurize(batch)

    monkeypatch.setattr(judge, "featurize_profiles", counting)
    return batches


class TestComp2LocMemo:
    def test_repeated_profile_featurizes_once(self, fitted_pipeline, profiles, monkeypatch):
        comp2loc = fitted_pipeline.comp2loc()
        batches = _count_featurized(monkeypatch, comp2loc)
        first, second = profiles[:2]
        proba = comp2loc.predict_proba_profiles([first, second, first, first])
        assert batches == [2]
        assert np.array_equal(proba[0], proba[2])
        comp2loc.predict_proba_profiles([second, first])
        assert batches == [2]  # both rows now come from the memo

    def test_memo_stays_within_the_judge_bound(self, fitted_pipeline, profiles, monkeypatch):
        monkeypatch.setattr(HisRectCoLocationJudge, "FEATURE_CACHE_SIZE", 4)
        comp2loc = fitted_pipeline.comp2loc()
        reference = fitted_pipeline.featurizer.featurize_profiles(profiles)
        rows = comp2loc._features(profiles)
        assert np.array_equal(rows, reference)  # a batch over the bound is complete
        assert comp2loc._feature_cache.capacity == 4
        assert len(comp2loc._feature_cache) == 4

    def test_memo_survives_deepcopy_and_pickle(self, fitted_pipeline, profiles):
        comp2loc = fitted_pipeline.comp2loc()
        expected = comp2loc.predict_proba_profiles(profiles)
        for twin in (copy.deepcopy(comp2loc), pickle.loads(pickle.dumps(comp2loc))):
            assert len(twin._feature_cache) == len(profiles)
            assert np.array_equal(twin.predict_proba_profiles(profiles), expected)


class TestHisRectJudgeMemo:
    def test_repeated_profile_featurizes_once(self, fitted_pipeline, profiles, monkeypatch):
        judge = copy.deepcopy(fitted_pipeline.judge)
        judge.clear_cache()
        batches = _count_featurized(monkeypatch, judge)
        rows = judge.profile_features([profiles[0], profiles[1], profiles[0]])
        assert batches == [2]
        assert np.array_equal(rows[0], rows[2])

    def test_deepcopy_keeps_an_independent_memo(self, fitted_pipeline, profiles):
        judge = copy.deepcopy(fitted_pipeline.judge)
        judge.clear_cache()
        judge.profile_features(profiles[:3])
        twin = copy.deepcopy(judge)
        assert len(twin._feature_cache) == 3
        twin.profile_features(profiles[3:5])
        assert len(twin._feature_cache) == 5 and len(judge._feature_cache) == 3
        assert twin.invalidate([profiles[0].uid]) >= 1
        assert profiles[0].uid in {key[0] for key in judge._feature_cache.export()}


def test_shared_memos_stay_correct_under_concurrent_callers(fitted_pipeline, profiles):
    """Memos are locked HotStores: threads sharing one judge, its featurizer's
    ``Fv(r)`` memo and its vectorizer cache (all bounded below the working
    set, so every call evicts) still get exactly the reference rows."""
    judge = copy.deepcopy(fitted_pipeline.judge)
    reference = judge.featurize_profiles(profiles)
    judge.clear_cache()
    judge._feature_cache.capacity = 3
    judge.featurizer.history_cache_size = 3
    judge.featurizer.content_encoder.vectorizer._cache.capacity = 3
    failures = []

    def call(offset):
        try:
            for round_ in range(30):
                order = [(offset + round_ + i) % len(profiles) for i in range(4)]
                rows = judge.profile_features([profiles[i] for i in order])
                if not np.array_equal(rows, reference[order]):
                    failures.append(order)
        except Exception as exc:  # noqa: BLE001 - recorded for the assertion
            failures.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
