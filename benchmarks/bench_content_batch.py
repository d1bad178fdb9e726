"""Benchmark: batched content encoders vs the per-profile scalar loop.

PR 2 vectorised the Eq. (1)-(2) history featurization, which left the
Section 4.2 content encoder as the dominant per-profile serving cost: the
scalar path steps a Python-level recurrence one profile at a time, paying
``B * T`` gate matmuls of shape ``(1, 4N)``.  ``encode_batch`` pads the batch
into one ``(B, T, M)`` tensor and steps over time once for everyone —
``T`` fused ``(B, 4N)`` matmuls — with masked pooling keeping ragged rows
identical to the scalar path.

This benchmark sweeps batch sizes and tweet lengths for all five encoders
(``bilstm-c``, ``blstm``, ``convlstm``, ``bgru``, ``attention``), reports the
speedup, and checks the two paths agree to 1e-9 on every configuration (the
property tests in ``tests/features/test_content_batch.py`` pin the same
contract).  It also times the serving path, ``encode_batch`` inside
``inference_mode`` (the same batch definition run on plain arrays), and fails
unless its rows equal the ``Tensor`` ``encode_batch`` rows exactly.  The headline figure is
BiLSTM-C at 256 profiles x 16 tokens, guarded at >= 3x.  The 1-profile rows
are the live-serving shape: a stream featurizes one tweet at a time.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_content_batch.py

pass ``--smoke`` (the CI invocation) for tiny sizes that only exercise the
equivalence check, or run through pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.data.records import Profile, Tweet
from repro.features import CONTENT_ENCODERS, ContentEncoderConfig, TextVectorizer, make_content_encoder
from repro.nn import inference_mode
from repro.text import SkipGramConfig, SkipGramModel, Tokenizer, Vocabulary

WORDS = [
    "coffee", "latte", "museum", "exhibit", "park", "sunny", "liberty", "strip",
    "bridge", "harbor", "garden", "market", "tower", "ferry", "stadium", "plaza",
]
MAX_TOKENS = 16
HEADLINE_GRID = (256, 16)
HEADLINE_TARGET = 3.0


def _build_vectorizer(word_dim: int = 24) -> TextVectorizer:
    corpus = [WORDS] * 20
    vocabulary = Vocabulary.build(corpus, min_count=1)
    skipgram = SkipGramModel(vocabulary, SkipGramConfig(embedding_dim=word_dim, epochs=1, seed=0))
    skipgram.train([vocabulary.encode(sentence) for sentence in corpus])
    return TextVectorizer(
        vocabulary, skipgram, tokenizer=Tokenizer(), max_tokens=MAX_TOKENS, min_tokens=4
    )


def _build_profiles(num_profiles: int, num_tokens: int, seed: int = 11) -> list[Profile]:
    """Profiles with ragged tweets averaging ``num_tokens`` words (some empty)."""
    rng = np.random.default_rng(seed)
    profiles = []
    for uid in range(num_profiles):
        count = int(rng.integers(0, num_tokens + 1)) if uid % 8 == 0 else num_tokens
        content = " ".join(rng.choice(WORDS, size=count)) if count else ""
        tweet = Tweet(uid=uid, ts=float(uid), content=content)
        profiles.append(Profile(uid=uid, tweet=tweet, visit_history=()))
    return profiles


def _scalar_loop(encoder, profiles: list[Profile]) -> np.ndarray:
    """The reference path: one ``encode`` call per profile."""
    return np.stack([encoder.encode(p).data for p in profiles])


def _batch(encoder, profiles: list[Profile]) -> np.ndarray:
    return encoder.encode_batch(profiles).data


def _served(encoder, profiles: list[Profile]) -> np.ndarray:
    """The serving path: ``encode_batch`` on plain arrays (no autograd graph)."""
    with inference_mode():
        return encoder.encode_batch(profiles).data


def _time(fn, *args, repeats: int = 2) -> tuple[float, np.ndarray]:
    """Best-of-``repeats`` wall time after one warmup call (steady-state cost)."""
    result = fn(*args)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def run(smoke: bool = False) -> str:
    vectorizer = _build_vectorizer()
    grid = [(1, 8), (8, 8), (16, 16)] if smoke else [(1, 8), (64, 8), (256, 16)]
    lines = [
        f"Benchmark: encode_batch (batched recurrence) vs per-profile loop, "
        f"M = {vectorizer.word_dim}, N = 16" + (" [smoke]" if smoke else ""),
        "",
        f"{'encoder':<12} {'profiles':>8} {'tokens':>7} {'loop ms':>10} "
        f"{'batch ms':>10} {'speedup':>8} {'max |Δ|':>10} {'served ms':>10}",
    ]
    headline_speedup = None
    for kind in sorted(CONTENT_ENCODERS):
        encoder = make_content_encoder(kind, vectorizer, ContentEncoderConfig(feature_dim=16, seed=3))
        for num_profiles, num_tokens in grid:
            profiles = _build_profiles(num_profiles, num_tokens)
            repeats = max(2, 64 // num_profiles)  # sub-millisecond rows need more
            loop_s, loop_rows = _time(_scalar_loop, encoder, profiles, repeats=repeats)
            batch_s, batch_rows = _time(_batch, encoder, profiles, repeats=repeats)
            served_s, served_rows = _time(_served, encoder, profiles, repeats=repeats)
            drift = float(np.abs(loop_rows - batch_rows).max())
            if drift > 1e-9:
                raise AssertionError(
                    f"{kind} batch path drifted from the scalar loop by {drift:.2e}"
                )
            if not np.array_equal(served_rows, batch_rows):
                raise AssertionError(f"{kind} inference path is not bit-identical to encode_batch")
            speedup = loop_s / batch_s if batch_s > 0 else float("inf")
            if kind == "bilstm-c" and (num_profiles, num_tokens) == HEADLINE_GRID:
                headline_speedup = speedup
            lines.append(
                f"{kind:<12} {num_profiles:>8d} {num_tokens:>7d} {loop_s * 1e3:>10.2f} "
                f"{batch_s * 1e3:>10.2f} {speedup:>7.1f}x {drift:>10.2e} {served_s * 1e3:>10.2f}"
            )
        lines.append("")
    if smoke:
        lines.append(
            "smoke run: equivalence checked (inference path exact), speedup target not enforced"
        )
    else:
        assert headline_speedup is not None
        lines.append(
            f"headline (bilstm-c, 256 profiles x 16 tokens): {headline_speedup:.1f}x "
            f"({'meets' if headline_speedup >= HEADLINE_TARGET else 'MISSES'} the "
            f">= {HEADLINE_TARGET:.0f}x target)"
        )
    return "\n".join(lines)


def test_content_batch(benchmark):
    from conftest import run_once, save_report

    report = run_once(benchmark, run)
    save_report("content_batch", report)
    assert "meets the >= 3x target" in report


if __name__ == "__main__":
    print(run(smoke="--smoke" in sys.argv[1:]))
