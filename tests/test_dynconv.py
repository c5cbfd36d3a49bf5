"""Candidate-mixing convolution: selection cases, linearity, similarity."""

import numpy as np
import pytest

from redlab import tensor as T
from redlab.dynconv import DynamicConv, candidate_similarity
from redlab.errors import ConfigurationError, DegenerateCandidateError, DimensionError
from redlab.pog import compute_weights, degradation_score
from redlab.rng import Rng
from redlab.tensor import Tensor
from composed import mse


class TestDynForward:
    def test_single_candidate_is_static_conv(self):
        """K=1 reduces exactly to a plain convolution with that candidate."""
        dc = DynamicConv(Rng(1), 2, 3, k=1)
        x = Tensor(Rng(2).fill_uniform((2, 5, 5), 0.0, 1.0))
        got = dc.forward(x).data
        want = T.conv2d(x, Tensor(dc.candidates.data[0])).data
        assert np.array_equal(got, want)

    def test_one_hot_gate_selects_candidate(self):
        """Saturated attention logits pick out one candidate kernel."""
        dc = DynamicConv(Rng(3), 2, 2, k=3)
        dc.att_mlp.w2.data[:] = 0.0
        dc.att_mlp.b2.data[:] = [0.0, 80.0, 0.0]
        x = Tensor(Rng(4).fill_uniform((2, 4, 4), 0.0, 1.0))
        got = dc.forward(x).data
        want = T.conv2d(x, Tensor(dc.candidates.data[1])).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_linearity_in_candidates(self):
        """Mixing kernels then convolving equals convolving then mixing."""
        for seed in range(5):
            dc = DynamicConv(Rng(seed), 3, 2, k=3)
            x = Tensor(Rng(seed + 50).fill_uniform((3, 6, 6), 0.0, 1.0))
            got = dc.forward(x).data
            pi = compute_weights(x, dc.att_mlp).data
            want = np.zeros_like(got)
            for j in range(3):
                want += pi[j] * T.conv2d(x, Tensor(dc.candidates.data[j])).data
            assert np.max(np.abs(got - want)) < 1e-10

    def test_wrong_channel_count_rejected(self):
        dc = DynamicConv(Rng(5), 2, 2, k=2)
        with pytest.raises(DimensionError):
            dc.forward(Tensor(np.zeros((3, 4, 4))))

    def test_needs_at_least_one_candidate(self):
        with pytest.raises(ConfigurationError):
            DynamicConv(Rng(0), 2, 2, k=0)

    def test_gradients(self):
        dc = DynamicConv(Rng(6), 2, 2, k=2)
        x = Tensor(Rng(7).fill_uniform((2, 4, 4), 0.1, 0.9))
        tgt = Tensor(Rng(8).fill_uniform((2, 4, 4), 0.0, 1.0))

        def f(_):
            return mse(dc.forward(x), tgt)

        err = T.finite_diff_check(f, [t for _, t in dc.named_parameters()], sample=60, rng=Rng(9))
        assert err < 1e-4


class TestCandidateSimilarity:
    def test_identical_candidates_all_ones(self):
        dc = DynamicConv(Rng(10), 2, 2, k=3)
        dc.candidates.data[1] = dc.candidates.data[0]
        dc.candidates.data[2] = dc.candidates.data[0]
        sim = candidate_similarity(dc)
        assert np.max(np.abs(sim - 1.0)) < 1e-12

    def test_orthogonal_candidates_zero_off_diagonal(self):
        dc = DynamicConv(Rng(11), 1, 1, k=2)
        dc.candidates.data[:] = 0.0
        dc.candidates.data[0, 0, 0, 0, 0] = 1.0
        dc.candidates.data[1, 0, 0, 1, 1] = 1.0
        sim = candidate_similarity(dc)
        assert abs(sim[0, 1]) < 1e-12
        assert abs(sim[1, 0]) < 1e-12

    def test_matches_brute_force(self):
        """Matrix equals explicit dot/norm cosine computation."""
        dc = DynamicConv(Rng(12), 3, 2, k=4)
        sim = candidate_similarity(dc)
        flat = dc.candidates.data.reshape(4, -1)
        for i in range(4):
            for j in range(4):
                want = flat[i] @ flat[j] / (
                    np.sqrt(flat[i] @ flat[i]) * np.sqrt(flat[j] @ flat[j])
                )
                assert abs(sim[i, j] - want) < 1e-12

    def test_structure(self):
        """Symmetric, unit diagonal, entries within [-1, 1]."""
        dc = DynamicConv(Rng(13), 2, 3, k=5)
        sim = candidate_similarity(dc)
        assert np.array_equal(sim, sim.T)
        assert np.array_equal(np.diag(sim), np.ones(5))
        assert np.all((sim >= -1.0) & (sim <= 1.0))

    def test_zero_candidate_rejected(self):
        dc = DynamicConv(Rng(14), 2, 2, k=2)
        dc.candidates.data[0] = 0.0
        with pytest.raises(DegenerateCandidateError):
            candidate_similarity(dc)


class TestEffectiveKernelSensitivity:
    def test_zero_attention_scores_zero(self):
        """Input-blind gating collapses the effective kernel to a constant."""
        dc = DynamicConv(Rng(15), 2, 2, k=3)
        for _, t in dc.att_mlp.named(""):
            t.data[:] = 0.0
        inputs = [Tensor(Rng(60 + i).fill_uniform((2, 4, 4), 0.0, 1.0)) for i in range(4)]
        assert abs(degradation_score(dc, inputs)) < 1e-12

    def test_generic_attention_is_input_sensitive(self):
        dc = DynamicConv(Rng(16), 2, 2, k=3)
        inputs = [Tensor(Rng(70 + i).fill_uniform((2, 4, 4), 0.0, 1.0)) for i in range(8)]
        assert degradation_score(dc, inputs) > 0.0
