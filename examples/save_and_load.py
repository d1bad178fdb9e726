"""Persist a trained co-location model and serve it later (or elsewhere).

A production deployment trains the HisRect pipeline offline, ships the fitted
model to the serving fleet, and answers co-location queries online.  This
example shows that round trip with :mod:`repro.io`:

1. generate a dataset and save it to disk (``save_dataset`` / ``load_dataset``);
2. fit the pipeline and save it (``save_pipeline``);
3. in a "fresh process" (simulated here by loading from disk), reload both and
   verify the loaded model reproduces the original predictions exactly;
4. wire the loaded model into the online friends-notification service.

Run it with::

    python examples/save_and_load.py
"""

from __future__ import annotations

import tempfile
import pathlib

import numpy as np

from repro.colocation import CoLocationPipeline, JudgeConfig, PipelineConfig
from repro.data import build_dataset, tiny_dataset_config
from repro.features import HisRectConfig
from repro.io import load_dataset, load_pipeline, save_dataset, save_pipeline
from repro.service import FriendsNotificationService
from repro.ssl import SSLTrainingConfig
from repro.text import SkipGramConfig


def main() -> None:
    workspace = pathlib.Path(tempfile.mkdtemp(prefix="hisrect-"))
    print(f"Workspace: {workspace}")

    # ------------------------------------------------------- offline training
    print("Generating and saving a small dataset ...")
    dataset = build_dataset(tiny_dataset_config(seed=13))
    save_dataset(dataset, workspace / "dataset")

    print("Training and saving the pipeline ...")
    config = PipelineConfig(
        hisrect=HisRectConfig(content_dim=8, feature_dim=16, embedding_dim=8),
        ssl=SSLTrainingConfig(max_iterations=40),
        judge=JudgeConfig(embedding_dim=8, classifier_dim=8, epochs=8),
        skipgram=SkipGramConfig(embedding_dim=16, epochs=1),
    )
    pipeline = CoLocationPipeline(config).fit(dataset)
    save_pipeline(pipeline, workspace / "model")

    # ---------------------------------------------------------- "new process"
    print("Reloading dataset and model from disk ...")
    served_dataset = load_dataset(workspace / "dataset")
    served_model = load_pipeline(workspace / "model")

    pairs = served_dataset.train.labeled_pairs[:25]
    original = pipeline.predict_proba(pairs)
    reloaded = served_model.predict_proba(pairs)
    drift = float(np.max(np.abs(original - reloaded))) if len(pairs) else 0.0
    print(f"Maximum probability drift between original and reloaded model: {drift:.2e}")

    # ------------------------------------------------------------ online use
    users = sorted({p.uid for p in served_dataset.test.labeled_profiles})[:6]
    friendships = [(a, b) for i, a in enumerate(users) for b in users[i + 1 :]]
    service = FriendsNotificationService(
        served_model,
        registry=served_dataset.registry,
        friendships=friendships,
        delta_t=served_dataset.delta_t,
        threshold=0.5,
    )
    stream = sorted(
        (tweet for timeline in served_dataset.test.store for tweet in timeline.tweets),
        key=lambda t: t.ts,
    )
    notifications = service.process_many(stream)
    print(f"Replayed {len(stream)} test tweets through the loaded model: "
          f"{len(notifications)} friend notifications")
    print("Done.")


if __name__ == "__main__":
    np.seterr(all="ignore")
    main()
