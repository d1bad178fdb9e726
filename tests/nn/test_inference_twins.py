"""Exact-equality tests for the array path of each serving layer and ``inference_mode``.

Every layer that serves writes its ``forward``/``forward_batch`` once over
type-dispatching ops, so it accepts a ``Tensor`` (training) or a plain
``ndarray`` (serving) and runs the same NumPy ops in the same order on both.
These tests call the same method with both kinds of input.  The contract is
bit-identity (``np.array_equal``), not a tolerance: serving on arrays must
reproduce the ``Tensor`` path's rows and probabilities exactly.
``inference_mode`` is thread-local, records no graph and refuses
``backward()``.
"""

import threading

import numpy as np
import pytest

from repro.colocation.judge import CoLocationJudgeNetwork, JudgeConfig
from repro.features.hisrect import EmbeddingNetwork
from repro.nn import (
    MLP,
    BiGRU,
    BiLSTM,
    Conv2D,
    ConvLSTM,
    GRU,
    LSTM,
    Linear,
    TemporalConv,
    Tensor,
    binary_cross_entropy_with_logits,
    inference_mode,
    is_inference_mode,
    masked_mean_over_time,
    masked_softmax_over_time,
    time_mask,
)
from repro.nn.autograd import relu
from repro.nn.layers import l2_normalize
from repro.nn.optim import Adam
from repro.nn.pooling import AttentionPooling

#: Ragged, singleton and all-valid length vectors (max length first or not).
LENGTHS = [[6, 3, 1, 6, 4], [5], [4, 4, 4], [1, 7], [2, 2]]


def padded_batch(lengths, width, seed=0):
    rng = np.random.default_rng(seed)
    batch = np.zeros((len(lengths), max(lengths), width))
    for row, length in enumerate(lengths):
        batch[row, :length] = rng.normal(size=(length, width))
    return batch, np.array(lengths)


def assert_same(twin, reference):
    assert twin.shape == reference.shape
    assert np.array_equal(twin, reference)


class TestInferenceMode:
    def test_records_no_graph_and_backward_raises(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((4, 3)))
        with inference_mode():
            assert is_inference_mode()
            out = (layer(x) * 2.0).sum()
            assert not out.requires_grad
            assert out._parents == () and out._backward_fn is None
            with pytest.raises(RuntimeError, match="inference_mode"):
                out.backward()
            with pytest.raises(RuntimeError, match="inference_mode"):
                layer.weight.backward(np.ones_like(layer.weight.data))
        assert not is_inference_mode()

    def test_nests_and_restores_on_error(self):
        with pytest.raises(KeyError):
            with inference_mode():
                with inference_mode():
                    assert is_inference_mode()
                assert is_inference_mode()
                raise KeyError("boom")
        assert not is_inference_mode()

    def test_gradients_unchanged_outside_the_mode(self):
        def gradient():
            layer = Linear(3, 2, rng=np.random.default_rng(0))
            loss = (layer(Tensor(np.arange(6.0).reshape(2, 3))).tanh() ** 2).sum()
            loss.backward()
            return layer.weight.grad

        reference = gradient()
        with inference_mode():
            pass
        assert_same(gradient(), reference)

    def test_training_loss_trace_unchanged_by_interleaved_serving(self):
        def train(serve_between_steps):
            net = CoLocationJudgeNetwork(6, JudgeConfig(embedding_dim=4, classifier_dim=4, seed=3))
            optimizer = Adam(net.parameters(), lr=0.05)
            rng = np.random.default_rng(1)
            left, right = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
            labels = (rng.random(8) > 0.5).astype(np.float64)
            losses = []
            for _ in range(5):
                net.train()
                loss = binary_cross_entropy_with_logits(net(Tensor(left), Tensor(right)), labels)
                net.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
                if serve_between_steps:
                    with inference_mode():
                        net(Tensor(left), Tensor(right))
            return losses

        assert train(False) == train(True)

    def test_thread_local(self):
        """A thread training outside the mode gets gradients while another serves inside it."""
        inside = threading.Event()
        trained = threading.Event()
        results = {}

        def serve():
            with inference_mode():
                inside.set()
                trained.wait(timeout=10)
                results["serving_mode"] = is_inference_mode()
                weight = Tensor(np.ones(2), requires_grad=True)
                results["serving_grad"] = (weight * 3.0).requires_grad

        def train():
            inside.wait(timeout=10)
            results["training_mode"] = is_inference_mode()
            weight = Tensor(np.ones(2), requires_grad=True)
            (weight * 3.0).sum().backward()
            results["grad"] = weight.grad
            trained.set()

        threads = [threading.Thread(target=serve), threading.Thread(target=train)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results["serving_mode"] is True and results["serving_grad"] is False
        assert results["training_mode"] is False
        np.testing.assert_array_equal(results["grad"], [3.0, 3.0])


@pytest.mark.parametrize("lengths", LENGTHS)
class TestRecurrentTwins:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm(self, lengths, reverse):
        lstm = LSTM(5, 4, rng=np.random.default_rng(0))
        batch, lens = padded_batch(lengths, 5, seed=1)
        reference = lstm.forward_batch(Tensor(batch), lens, reverse=reverse).data
        assert_same(lstm.forward_batch(batch, lens, reverse=reverse), reference)

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_bilstm(self, lengths, num_layers, stacked):
        bilstm = BiLSTM(5, 3, num_layers=num_layers, rng=np.random.default_rng(2))
        batch, lens = padded_batch(lengths, 5, seed=3)
        reference = bilstm.forward_batch(Tensor(batch), lens, stacked_channels=stacked).data
        assert_same(bilstm.forward_batch(batch, lens, stacked_channels=stacked), reference)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru(self, lengths, reverse):
        gru = GRU(5, 4, rng=np.random.default_rng(4))
        batch, lens = padded_batch(lengths, 5, seed=5)
        reference = gru.forward_batch(Tensor(batch), lens, reverse=reverse).data
        assert_same(gru.forward_batch(batch, lens, reverse=reverse), reference)

    def test_bigru(self, lengths):
        bigru = BiGRU(5, 3, rng=np.random.default_rng(6))
        batch, lens = padded_batch(lengths, 5, seed=7)
        assert_same(bigru.forward_batch(batch, lens), bigru.forward_batch(Tensor(batch), lens).data)

    def test_convlstm(self, lengths):
        convlstm = ConvLSTM(6, kernel_size=3, rng=np.random.default_rng(8))
        batch, lens = padded_batch(lengths, 6, seed=9)
        reference = convlstm.forward_batch(Tensor(batch), lens).data
        assert_same(convlstm.forward_batch(batch, lens), reference)

    def test_masked_pooling(self, lengths):
        states, lens = padded_batch(lengths, 4, seed=10)
        mask = time_mask(lens, states.shape[1])
        reference = masked_mean_over_time(Tensor(states), mask).data
        assert_same(masked_mean_over_time(states, mask), reference)
        scores = np.random.default_rng(11).normal(size=states.shape[:2] + (1,)) * 50.0
        reference = masked_softmax_over_time(Tensor(scores), mask).data
        assert_same(masked_softmax_over_time(scores, mask), reference)

    def test_attention_pooling(self, lengths):
        pooling = AttentionPooling(4, rng=np.random.default_rng(12))
        states, lens = padded_batch(lengths, 4, seed=13)
        mask = time_mask(lens, states.shape[1])
        reference = pooling.forward_batch(Tensor(states), mask).data
        assert_same(pooling.forward_batch(states, mask), reference)


class TestConvolutionTwins:
    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_conv2d(self, batch_size):
        conv = Conv2D(2, 3, kernel_height=3, kernel_width=2, rng=np.random.default_rng(0))
        images = np.random.default_rng(1).normal(size=(batch_size, 6, 4, 2))
        assert_same(conv.forward_batch(images), conv.forward_batch(Tensor(images)).data)

    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_temporal_conv_with_relu(self, batch_size):
        conv = TemporalConv(width=4, kernel_height=3, rng=np.random.default_rng(2))
        stacked = np.random.default_rng(3).normal(size=(batch_size, 7, 4, 2))
        reference = conv.forward_batch(Tensor(stacked)).relu().data
        assert_same(relu(conv.forward_batch(stacked)), reference)

    def test_shape_checks_match(self):
        conv = TemporalConv(width=4, kernel_height=3, rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            conv.forward_batch(np.zeros((1, 7, 5, 2)))
        with pytest.raises(ValueError, match="smaller than the kernel"):
            conv.forward_batch(np.zeros((1, 2, 4, 2)))


class TestFeedForwardTwins:
    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_mlp_skips_dropout(self, rows):
        mlp = MLP(6, [5, 5, 3], final_activation=False, keep_prob=0.5, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(rows, 6))
        mlp.eval()
        reference = mlp(Tensor(x)).data
        mlp.train()
        with inference_mode():
            assert_same(mlp(x), reference)
            served = mlp(Tensor(x))
        assert_same(served.data, reference)
        assert mlp.training  # the mode never flips the shared flag

    @pytest.mark.parametrize("normalize", [False, True])
    def test_embedding_network(self, normalize):
        net = EmbeddingNetwork(6, 4, normalize=normalize, keep_prob=0.8, seed=3)
        x = np.random.default_rng(4).normal(size=(7, 6))
        reference = net.eval()(Tensor(x)).data
        net.train()
        with inference_mode():
            assert_same(net(Tensor(x)).data, reference)

    def test_l2_normalize_accepts_arrays(self):
        x = np.random.default_rng(5).normal(size=(4, 3))
        assert_same(l2_normalize(x), l2_normalize(Tensor(x)).data)

    @pytest.mark.parametrize("rows", [1, 2, 40])
    def test_judge_network(self, rows):
        config = JudgeConfig(embedding_dim=4, classifier_dim=5, seed=9)
        net = CoLocationJudgeNetwork(6, config)
        rng = np.random.default_rng(rows)
        left, right = rng.normal(size=(rows, 6)), rng.normal(size=(rows, 6))
        logits = net.eval()(Tensor(left), Tensor(right)).data
        net.train()
        with inference_mode():
            assert_same(net(Tensor(left), Tensor(right)).data, logits)

    def test_twins_read_parameters_at_call_time(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = np.ones((2, 3))
        before = layer(x)
        layer.load_state_dict({name: value + 1.0 for name, value in layer.state_dict().items()})
        after = layer(x)
        assert isinstance(after, np.ndarray)
        assert not np.array_equal(before, after)
        assert_same(after, layer(Tensor(x)).data)
