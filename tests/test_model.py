import copy
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import deep_tree
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointparse import cli, model, transition
from jointparse.model import (
    LOSS_BLOCK,
    DropoutMasks,
    LabelStep,
    ModelConfig,
    ModelError,
    SpanScorer,
    StructuralStep,
    Vocabulary,
    encode,
    _activate,
    _dropped,
    _encoder_backward,
    _halved,
    _lstm_backward,
    _lstm_forward,
    _lstm_steps,
    aligned,
    aligned_views,
    init_parameters,
    label_raw_scores,
    load_checkpoint,
    loss_and_gradients,
    make_dropout_masks,
    parameter_shapes,
    sample_hidden_mask,
    save_checkpoint,
    structural_raw_scores,
    zero_gradients,
)
from jointparse.serialize import write_joint
from jointparse.synthetic import generate_treebank
from jointparse.transition import derive, parse_documents, parse_greedy, reconstruct
from jointparse.trees import EduSpan, extract_edus


@pytest.fixture(scope="module")
def setup():
    trees = generate_treebank("model-tests", 6, max_tokens=10)
    vocab = Vocabulary.from_treebank(trees)
    config = ModelConfig(word_dim=6, hidden_dim=5, scorer_hidden=8)
    params = init_parameters(vocab, config, np.random.default_rng(42))
    return trees, vocab, config, params


def _label_step(params, target=1):
    """A label step on the first token with every label slot legal."""
    legal = np.ones(params["label.b2"].shape, dtype=bool)
    return LabelStep(left=0, mid=0, right=1, legal=legal, target=target)


class TestVocabulary:
    def test_unk_is_id_zero(self, setup):
        _, vocab, _, _ = setup
        assert vocab.token_id("never-seen-token") == 0
        assert vocab.words[0] == "<unk>"

    def test_chain_ids_dense_from_one(self, setup):
        _, vocab, _, _ = setup
        ids = [vocab.chain_id(c) for c in vocab.chains]
        assert ids == list(range(1, len(vocab.chains) + 1))
        assert vocab.label_dim == len(vocab.chains) + 1

    def test_unknown_chain_rejected(self, setup):
        _, vocab, _, _ = setup
        with pytest.raises(ModelError, match="inventory"):
            vocab.chain_id("NOT+A+CHAIN")

    def test_literal_unknown_token_shares_slot_zero(self):
        trees = generate_treebank("unk-token", 3, vocabulary=("<unk>", "a"))
        vocab = Vocabulary.from_treebank(trees)
        assert vocab.words == ["<unk>", "a"]
        assert vocab.token_id("<unk>") == 0


def _reference_boundary(params, ids, masks):
    """Boundary features computed one token and one matrix-vector product
    at a time, as a straightforward reading of the architecture."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def run(name, xs):
        Wx, Wh, b = (params[f"{name}.{part}"] for part in ("Wx", "Wh", "b"))
        H = Wh.shape[1]
        h, c = np.zeros(H), np.zeros(H)
        states = [h]
        for x in xs:
            z = Wx @ x + Wh @ h + b
            i, f, o = sigmoid(z[:H]), sigmoid(z[H : 2 * H]), sigmoid(z[2 * H : 3 * H])
            c = f * c + i * np.tanh(z[3 * H :])
            h = o * np.tanh(c)
            states.append(h)
        return np.array(states)

    E = params["embed"][ids]
    l1f, l1b = run("lstm1f", E), run("lstm1b", E[::-1])[::-1]
    out1 = np.concatenate([l1f[1:], l1b[:-1]], axis=1)
    if masks is not None:
        out1 = out1 * (masks.layer1 / masks.keep)
    l2f, l2b = run("lstm2f", out1), run("lstm2b", out1[::-1])[::-1]
    F = np.concatenate([l1f, l1b, l2f, l2b], axis=1)
    return F * (masks.features / masks.keep) if masks is not None else F


def _reference_score(params, boundary, head, positions, hmask, keep=1.0):
    """A head applied to the concatenated boundary vectors, its bool hidden
    mask scaled by 1/keep; the sentinel boundary -1 reads zeros."""
    zero = np.zeros(boundary.shape[1])
    x = np.concatenate([boundary[p] if p >= 0 else zero for p in positions])
    hidden = np.maximum(params[f"{head}.W1"] @ x + params[f"{head}.b1"], 0.0)
    if hmask is not None:
        hidden = hidden * (hmask / keep)
    if head == "label":
        return params["label.W2"] @ hidden + params["label.b2"]
    return params[f"{head}.w2"] @ hidden + params[f"{head}.b2"][0]


def _reference_loss(params, ids, steps, masks):
    """Loss and gradients one step at a time: each head applied to the
    concatenated boundary vectors it reads and backpropagated by hand, with
    the boundary-feature gradient pushed through the encoder's backward."""
    enc = encode(params, ids, masks)
    F = enc.boundary
    D = F.shape[1]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dF = np.zeros_like(F)
    loss = 0.0
    for step in steps:
        if isinstance(step, LabelStep):
            reads = [("label", (step.left, step.mid, step.right), step.hmask)]
        else:
            reads = [
                ("shift", (step.left, step.right), step.hmask_shift),
                ("combine", (step.below, step.left, step.right), step.hmask_combine),
            ]
        heads = []
        for head, positions, hmask in reads:
            x = np.concatenate([F[p] if p >= 0 else np.zeros(D) for p in positions])
            pre = params[f"{head}.W1"] @ x + params[f"{head}.b1"]
            keep = np.ones_like(pre) if hmask is None else hmask / masks.keep
            W2 = params["label.W2"] if head == "label" else params[f"{head}.w2"][None]
            hidden = np.maximum(pre, 0.0) * keep
            heads.append((head, positions, keep, x, pre, hidden, W2))
        scores = np.concatenate(
            [W2 @ hidden + params[f"{h}.b2"] for h, _, _, _, _, hidden, W2 in heads]
        )
        legal = np.asarray(step.legal, dtype=bool)
        masked = np.where(legal, scores, -np.inf)
        prob = np.exp(masked - masked.max())
        prob /= prob.sum()
        loss += -np.log(prob[step.target])
        dscores = prob
        dscores[step.target] -= 1.0
        for head, positions, keep, x, pre, hidden, W2 in heads:
            d, dscores = dscores[: len(W2)], dscores[len(W2) :]
            out = "label.W2" if head == "label" else f"{head}.w2"
            grads[out] += np.outer(d, hidden).reshape(grads[out].shape)
            grads[f"{head}.b2"] += d
            dpre = (d @ W2) * keep * (pre > 0)
            grads[f"{head}.W1"] += np.outer(dpre, x)
            grads[f"{head}.b1"] += dpre
            dx = params[f"{head}.W1"].T @ dpre
            for k, p in enumerate(positions):
                if p >= 0:
                    dF[p] += dx[k * D : (k + 1) * D]
    grads.update(_encoder_backward(params, enc, dF))
    return loss, grads


def _gate_keeping_forward(params, name, sequences):
    """The model's LSTM forward of one sequence, step for step, keeping
    every step's gates (sigmoid i, f, o and tanh g) and tanh(c) in the
    cache."""
    [xs] = sequences
    Wx, Wh, b = (params[f"{name}.{part}"] for part in ("Wx", "Wh", "b"))
    n, H = xs.shape[0], Wh.shape[1]
    inputs = xs @ Wx.T + b
    inputs[:, : 3 * H] *= 0.5
    Wh = Wh.copy()
    Wh[: 3 * H] *= 0.5
    states, cells = np.zeros((n + 1, H)), np.zeros((n + 1, H))
    gates, tanh_cells = np.empty((n, 4 * H)), np.empty((n, H))
    for t in range(n):
        z = gates[t]
        np.dot(Wh, states[t], out=z)
        z += inputs[t]
        np.tanh(z, out=z)
        z[: 3 * H] = z[: 3 * H] * 0.5 + 0.5
        i, f, o, g = z.reshape(4, H)
        cells[t + 1] = f * cells[t] + i * g
        tanh_cells[t] = np.tanh(cells[t + 1])
        states[t + 1] = o * tanh_cells[t]
    return [SimpleNamespace(xs=xs, states=states, cells=cells, gates=gates,
                            tanh_cells=tanh_cells)]


def _gate_reading_backward(params, name, cache, d_states, grads):
    """Backpropagation through time that reads the forward's own per-step
    gates and tanh(c) from the cache, one step at a time."""
    Wx, Wh = params[f"{name}.Wx"], params[f"{name}.Wh"]
    n, H = cache.xs.shape[0], Wh.shape[1]
    dZ = np.empty((n, 4 * H))
    dh, dc = np.zeros(H), np.zeros(H)
    for t in range(n - 1, -1, -1):
        i, f, o, g = cache.gates[t].reshape(4, H)
        tc = cache.tanh_cells[t]
        dh = dh + d_states[t + 1]
        dc = dc + dh * o * (1.0 - tc * tc)
        dZ[t] = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * cache.cells[t] * f * (1.0 - f),
            dh * tc * o * (1.0 - o),
            dc * i * (1.0 - g * g),
        ])
        dh = Wh.T @ dZ[t]
        dc = dc * f
    grads[f"{name}.Wx"] = dZ.T @ cache.xs
    grads[f"{name}.Wh"] = dZ.T @ cache.states[:-1]
    grads[f"{name}.b"] = dZ.sum(axis=0)
    return dZ @ Wx


def _random_steps(count, n, label_dim, hmask, rng):
    """Interleaved structural and label steps over n tokens with legal
    targets, including below = -1, width-1 spans and one-action masks."""
    steps = []
    for _ in range(count):
        left = int(rng.integers(0, n))
        right = int(rng.integers(left + 1, n + 1))
        if rng.random() < 0.5:
            below = int(rng.integers(-1, left)) if left > 0 else -1
            legal = [(True, True), (True, False), (False, True)][rng.integers(3)]
            target = int(rng.choice(np.flatnonzero(legal)))
            steps.append(
                StructuralStep(below, left, right, legal, target, hmask(), hmask())
            )
        else:
            mid = left if right - left == 1 else int(rng.integers(left, right))
            legal = rng.random(label_dim) < 0.7
            legal[0] = True
            target = int(rng.choice(np.flatnonzero(legal)))
            steps.append(LabelStep(left, mid, right, legal, target, hmask()))
    return steps


class TestEncode:
    def test_boundary_dimension(self, setup):
        _, _, config, params = setup
        enc = encode(params, [1, 2, 3])
        assert enc.boundary.shape == (4, 4 * config.hidden_dim)

    def test_deterministic_without_dropout(self, setup):
        _, _, _, params = setup
        a = encode(params, [1, 2, 3]).boundary
        b = encode(params, [1, 2, 3]).boundary
        assert np.array_equal(a, b)

    def test_reversal_is_not_feature_reversal(self, setup):
        _, _, _, params = setup
        fwd = encode(params, [1, 2, 3]).boundary
        rev = encode(params, [3, 2, 1]).boundary
        assert not np.allclose(rev, fwd[::-1])

    def test_every_boundary_sees_every_token(self, setup):
        _, _, _, params = setup
        base = encode(params, [1, 2, 3, 4]).boundary
        bump = encode(params, [1, 2, 5, 4]).boundary
        deltas = np.linalg.norm(base - bump, axis=1)
        assert np.all(deltas > 0)

    def test_gate_form_matches_two_branch_sigmoid_and_tanh(self):
        # With a zero input a step's pre-activations are `b`, so the gates the
        # forward and backward share are sigmoid on the i, f and o blocks and
        # tanh on g at chosen points, whether taken one row at a time (the
        # forward) or over all rows at once (the backward).  The tanh form of
        # the sigmoid flushes it to 0 below about -37, where the two-branch
        # form is subnormal, so the check is absolute.
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(size=999) * scale for scale in (0.1, 1.0, 10.0, 100.0)
        ] + [np.array([0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.inf, -np.inf])])
        H = 77  # 4004 points in 52 rows
        halved = []
        for z in x.reshape(-1, H):
            params = {"t.Wx": np.zeros((4 * H, 1)), "t.Wh": np.zeros((4 * H, H)),
                      "t.b": np.tile(z, 4)}
            halved.append(_halved(params, "t", np.zeros((1, 1)))[0][0])
        rows = _activate(np.array(halved))
        for z, row, pre in zip(x.reshape(-1, H), rows, halved):
            assert np.array_equal(_activate(pre), row)
            gates = row.reshape(4, H)
            for k in range(3):
                np.testing.assert_allclose(gates[k], two_branch(z), rtol=0,
                                           atol=2.3e-16)
            np.testing.assert_allclose(gates[3], np.tanh(z), rtol=0, atol=2.3e-16)

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_lone_sequence_runs_the_step_loop_whole(self, setup, n):
        # A sequence alone runs `_lstm_steps` from step 0 and keeps its
        # cells, which training's backward reads; in a group of two or more
        # every cache keeps hidden states only.
        _, _, config, params = setup
        xs = np.random.default_rng(n).normal(size=(n, config.word_dim))
        inputs, Wh = _halved(params, "lstm1f", xs)
        states = np.zeros((n + 1, Wh.shape[1]))
        cells = np.zeros_like(states)
        _lstm_steps(Wh, inputs, states, cells)
        [cache] = _lstm_forward(params, "lstm1f", [xs])
        assert cache.xs is xs
        assert np.array_equal(cache.states, states)
        assert np.array_equal(cache.cells, cells)
        for group in ([xs, xs[:1]], [xs[:1], xs, xs]):
            caches = _lstm_forward(params, "lstm1f", group)
            assert [c.cells for c in caches] == [None] * len(group)

    def test_empty_document_rejected(self, setup):
        _, _, _, params = setup
        with pytest.raises(ModelError):
            encode(params, [])

    def test_factored_scoring_matches_per_step_reference(self, setup):
        _, vocab, config, params = setup
        words = vocab.words[1:8]
        ids = [vocab.token_id(w) for w in words]
        scorer = SpanScorer(params, vocab)
        scorer.prepare([words])
        scorer.select(0)
        rng = np.random.default_rng(5)
        for rate in (0.0, 0.5):
            masks = make_dropout_masks(len(ids), config, rate, rng)
            enc = encode(params, ids, masks)
            boundary = _reference_boundary(params, ids, masks)
            np.testing.assert_allclose(enc.boundary, boundary, rtol=0, atol=1e-10)

            def hmask():
                return sample_hidden_mask(config, rate, rng)

            for below, left, right in [(-1, 0, 1), (-1, 0, 4), (0, 2, 3), (1, 5, 7)]:
                hmask_shift, hmask_combine = hmask(), hmask()
                expected = [
                    _reference_score(params, boundary, "shift", (left, right),
                                     hmask_shift, 1.0 - rate),
                    _reference_score(params, boundary, "combine", (below, left, right),
                                     hmask_combine, 1.0 - rate),
                ]
                got = structural_raw_scores(
                    params, enc, below, left, right, hmask_shift, hmask_combine
                )
                assert all(type(score) is float for score in got)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
                if masks is None:
                    got = scorer.structural(below, left, right)
                    assert all(type(score) is float for score in got)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
            # (i, i, i+1) is a width-1 span: its midpoint is its left boundary.
            for left, mid, right in [(0, 0, 1), (6, 6, 7), (0, 3, 7), (2, 4, 5)]:
                label_hmask = hmask()
                expected = _reference_score(
                    params, boundary, "label", (left, mid, right), label_hmask,
                    1.0 - rate,
                )
                got = label_raw_scores(params, enc, left, mid, right, label_hmask)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
                if masks is None:
                    got = scorer.labels([left], [mid], [right])[0]
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


class TestLoss:
    def test_zero_steps(self, setup):
        _, _, _, params = setup
        loss, grads = loss_and_gradients(params, encode(params, [1, 2]), [])
        assert loss == 0.0
        assert all(not array.any() for array in grads.values())

    def test_duplicated_step_doubles_contribution(self, setup):
        _, _, _, params = setup
        step = StructuralStep(
            below=-1, left=0, right=1, legal=(True, False), target=0
        )
        label = _label_step(params)
        one, _ = loss_and_gradients(params, encode(params, [1, 2]), [step, label])
        two, _ = loss_and_gradients(
            params, encode(params, [1, 2]), [step, label, label]
        )
        single, _ = loss_and_gradients(params, encode(params, [1, 2]), [step])
        assert two - one == pytest.approx(one - single)

    def test_dropout_masks_change_loss_but_not_shape(self, setup):
        _, _, config, params = setup
        rng = np.random.default_rng(0)
        masks = make_dropout_masks(2, config, 0.5, rng)
        label = _label_step(params)
        loss_plain, grads_plain = loss_and_gradients(
            params, encode(params, [1, 2]), [label]
        )
        loss_drop, grads_drop = loss_and_gradients(
            params, encode(params, [1, 2], masks), [label]
        )
        assert set(grads_plain) == set(grads_drop)
        assert loss_plain != pytest.approx(loss_drop)

    def test_nonfinite_loss_reported_with_step(self, setup):
        _, _, _, params = setup
        broken = {k: v.copy() for k, v in params.items()}
        broken["label.b2"] = broken["label.b2"] + np.nan
        label = _label_step(params)
        with pytest.raises(ModelError, match="step 0"):
            loss_and_gradients(broken, encode(broken, [1, 2]), [label])


    def test_illegal_target_reported_with_step(self, setup):
        _, _, _, params = setup
        legal = _label_step(params)
        illegal = _label_step(params, target=0)
        illegal.legal[0] = False  # the driver's mask at the full-document span
        with pytest.raises(ModelError, match="(?s)step 1 .*target slot 0 is not legal"):
            loss_and_gradients(params, encode(params, [1, 2]), [legal, illegal])
        shift = StructuralStep(below=-1, left=0, right=1, legal=(False, True), target=0)
        with pytest.raises(ModelError, match="(?s)step 0 .*target slot 0 is not legal"):
            loss_and_gradients(params, encode(params, [1, 2]), [shift])

    def test_consumed_encoding_rejected(self, setup):
        _, vocab, _, params = setup
        label = _label_step(params)
        enc = encode(params, [1, 2])
        loss_and_gradients(params, enc, [label])
        assert not enc.caches and enc.heads is None
        with pytest.raises(ModelError, match="encode the document again"):
            loss_and_gradients(params, enc, [label])
        # An inference encoding holds no caches or features for the loss.
        scorer = SpanScorer(params, vocab)
        scorer.prepare([vocab.words[1:3]])
        scorer.select(0)
        with pytest.raises(ModelError, match="encode the document again"):
            loss_and_gradients(params, scorer.enc, [label])


class TestDropoutMasks:
    def test_scaled_bool_mask_is_the_float_mask_product(self):
        rng = np.random.default_rng(29)
        keep = 0.7  # 1/0.7 is inexact in binary
        x = np.concatenate([
            rng.normal(size=2000) * 10.0,
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308, -5e-324, 1e308],
        ])
        mask = rng.random(x.shape) < keep
        mask[-8:] = [True, True, True, False, True, False, True, True]
        with np.errstate(invalid="ignore"):  # inf times a dropped unit
            got = _dropped(x.copy(), mask, 1.0 / keep)
            want = x * (mask / keep)
        assert got.tobytes() == want.tobytes()

    def test_bool_masks_match_float_masks_bit_for_bit(self, setup):
        # The float masks the model once stored, 0 or 1/keep, are the
        # reference: masks holding them with keep 1 run exactly the old
        # products, which the bool masks scaled at use must equal.
        _, vocab, config, params = setup
        rng = np.random.default_rng(31)
        rate = 0.3
        ids = rng.integers(0, vocab.n_words, 11)
        masks = make_dropout_masks(len(ids), config, rate, rng)
        assert masks.layer1.dtype == bool and masks.features.dtype == bool
        assert masks.keep == 1.0 - rate

        def hmask():  # some steps without a mask among masked ones
            return sample_hidden_mask(config, rate, rng) if rng.random() < 0.8 else None

        steps = _random_steps(2 * LOSS_BLOCK, len(ids), vocab.label_dim, hmask, rng)
        mask_fields = ("hmask_shift", "hmask_combine", "hmask")
        float_steps = copy.deepcopy(steps)
        for step in float_steps:
            for name in mask_fields:
                mask = getattr(step, name, None)
                if mask is not None:
                    assert mask.dtype == bool
                    setattr(step, name, mask / masks.keep)
        float_masks = DropoutMasks(
            masks.layer1 / masks.keep, masks.features / masks.keep, keep=1.0
        )
        enc = encode(params, ids, masks)
        old = encode(params, ids, float_masks)
        assert np.array_equal(enc.boundary, old.boundary)
        for head, blocks in enc.heads.items():
            for rows, old_rows in zip(blocks, old.heads[head]):
                assert np.array_equal(rows, old_rows)
        for step, float_step in list(zip(steps, float_steps))[:40]:
            if isinstance(step, LabelStep):
                got = label_raw_scores(params, enc, step.left, step.mid, step.right,
                                       step.hmask)
                want = label_raw_scores(params, old, step.left, step.mid,
                                        step.right, float_step.hmask)
            else:
                got = structural_raw_scores(
                    params, enc, step.below, step.left, step.right,
                    step.hmask_shift, step.hmask_combine,
                )
                want = structural_raw_scores(
                    params, old, step.below, step.left, step.right,
                    float_step.hmask_shift, float_step.hmask_combine,
                )
            assert np.array_equal(got, want)
        loss, grads = loss_and_gradients(params, enc, steps)
        want_loss, want = loss_and_gradients(params, old, float_steps)
        assert loss == want_loss
        for key, array in want.items():
            assert np.array_equal(grads[key], array), key


class TestStackedLoss:
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_matches_per_step_reference(self, setup, rate):
        _, vocab, config, params = setup
        rng = np.random.default_rng(17)
        ids = rng.integers(0, vocab.n_words, 9)
        masks = make_dropout_masks(len(ids), config, rate, rng)

        def hmask():  # some steps without a mask among masked ones
            return sample_hidden_mask(config, rate, rng) if rng.random() < 0.8 else None

        # Both kinds span more than two blocks of stacked steps.
        steps = _random_steps(5 * LOSS_BLOCK, len(ids), vocab.label_dim, hmask, rng)
        assert any(getattr(s, "below", 0) == -1 for s in steps)
        assert any(isinstance(s, LabelStep) and s.right - s.left == 1 for s in steps)
        loss, grads = loss_and_gradients(params, encode(params, ids, masks), steps)
        want_loss, want = _reference_loss(params, ids, steps, masks)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        for key, array in want.items():
            scale = np.abs(array).max()
            assert np.abs(grads[key] - array).max() <= 1e-12 * scale, key

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_recomputed_gates_match_the_forwards_own(self, setup, rate,
                                                     monkeypatch):
        # The backward recomputes the gates with one matrix product per run,
        # so they may differ from the forward's per-step products in the last
        # bits; the forward itself, and so the loss, is unchanged.
        _, vocab, config, params = setup
        rng = np.random.default_rng(23)
        ids = rng.integers(0, vocab.n_words, 40)
        masks = make_dropout_masks(len(ids), config, rate, rng)
        steps = _random_steps(60, len(ids), vocab.label_dim, lambda: None, rng)
        loss, grads = loss_and_gradients(params, encode(params, ids, masks), steps)
        monkeypatch.setattr(model, "_lstm_forward", _gate_keeping_forward)
        monkeypatch.setattr(model, "_lstm_backward", _gate_reading_backward)
        want_loss, want = loss_and_gradients(
            params, encode(params, ids, masks), steps
        )
        assert loss == want_loss
        for key, array in want.items():
            scale = np.abs(array).max()
            assert np.abs(grads[key] - array).max() <= 1e-12 * scale, key

    def test_first_failing_step_is_reported(self, setup):
        _, vocab, config, params = setup
        ok = _label_step(params)
        poisoned = _label_step(params)
        poisoned.hmask = np.full(config.scorer_hidden, np.nan)
        illegal = StructuralStep(below=-1, left=0, right=1, legal=(False, True),
                                 target=0)
        with pytest.raises(ModelError, match="non-finite loss at step 1"):
            loss_and_gradients(
                params, encode(params, [1, 2]), [ok, poisoned, illegal, ok]
            )
        with pytest.raises(ModelError, match="(?s)step 1 .*target slot 0 is not legal"):
            loss_and_gradients(
                params, encode(params, [1, 2]), [ok, illegal, poisoned, ok]
            )


class TestCheckpoint:
    def test_round_trip(self, setup, tmp_path):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        loaded_params, loaded_vocab, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert loaded_vocab.words == vocab.words
        assert loaded_vocab.chains == vocab.chains
        for key, array in params.items():
            assert np.array_equal(loaded_params[key], array)

    def test_loads_into_one_buffer(self, setup, tmp_path):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        loaded, _, _ = load_checkpoint(path)
        buffer = loaded["embed"].base
        assert buffer.dtype == np.float64 and buffer.flags.c_contiguous
        assert list(loaded) == list(parameter_shapes(vocab, config))
        for key, array in params.items():
            assert loaded[key].base is buffer
            assert loaded[key].flags.c_contiguous and loaded[key].flags.writeable
            assert np.array_equal(loaded[key], array)
        # In `parameter_shapes` order, each view starts on a cache line after
        # the previous one ends, with a gap of under 8 elements.
        spans = [
            (view.__array_interface__["data"][0], view.nbytes)
            for view in loaded.values()
        ]
        assert all(start % 64 == 0 for start, _ in spans)
        assert all(
            0 <= b - (a + n) < 8 * 8 for (a, n), (b, _) in zip(spans, spans[1:])
        )

    def test_narrower_stored_dtype_loads_as_float64(self, setup, tmp_path):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        narrow = dict(params, **{"lstm1f.Wx": params["lstm1f.Wx"].astype(np.float32)})
        save_checkpoint(path, narrow, vocab, config)
        loaded, _, _ = load_checkpoint(path)
        assert loaded["lstm1f.Wx"].dtype == np.float64
        assert np.array_equal(loaded["lstm1f.Wx"], narrow["lstm1f.Wx"])

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_parameter_names_must_match(self, setup, tmp_path, change):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        bad = dict(params)
        if change == "missing":
            del bad["label.b2"]
        else:
            bad["label.b3"] = params["label.b2"]
        save_checkpoint(path, bad, vocab, config)
        with pytest.raises(ModelError, match=r"names do not match: \['label\.b[23]'\]"):
            load_checkpoint(path)

    def test_load_holds_one_member_besides_the_model(self, tmp_path):
        # Default dims: a model of about 21 MB whose largest member is
        # several MB, so holding every member at once would show.
        trees = generate_treebank("checkpoint-memory", 4, max_tokens=10)
        vocab = Vocabulary.from_treebank(trees)
        config = ModelConfig()
        params = init_parameters(vocab, config, np.random.default_rng(1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        del params
        tracemalloc.start()
        try:
            loaded, _, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model_bytes = sum(array.nbytes for array in loaded.values())
        largest = max(array.nbytes for array in loaded.values())
        assert peak <= model_bytes + largest + 2**20, (peak, model_bytes, largest)

    def test_load_allocates_only_the_model(self, tmp_path):
        # Stored float64 members are read straight into the parameter
        # buffer, so no member-sized temporary is allocated besides it.
        trees = generate_treebank("checkpoint-memory", 4, max_tokens=10)
        vocab = Vocabulary.from_treebank(trees)
        config = ModelConfig()
        params = init_parameters(vocab, config, np.random.default_rng(1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        del params
        tracemalloc.start()
        try:
            loaded, _, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model_bytes = sum(array.nbytes for array in loaded.values())
        assert peak <= model_bytes + 2**20, (peak, model_bytes)

    @pytest.mark.parametrize("encoding", ["deflated", "fortran-order", "big-endian"])
    def test_other_member_encodings_load(self, setup, tmp_path, encoding):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        if encoding == "fortran-order":
            arrays["lstm1f.Wh"] = np.asfortranarray(arrays["lstm1f.Wh"])
        elif encoding == "big-endian":
            arrays["label.W1"] = arrays["label.W1"].astype(">f8")
        with open(path, "wb") as handle:
            (np.savez_compressed if encoding == "deflated" else np.savez)(
                handle, **arrays
            )
        loaded, _, _ = load_checkpoint(path)
        for key, array in params.items():
            assert loaded[key].dtype == np.float64 and loaded[key].flags.c_contiguous
            assert np.array_equal(loaded[key], array), key

    @given(
        dims=st.tuples(*[st.integers(1, 12)] * 3),
        docs=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=15, deadline=None)
    def test_loads_the_bytes_np_load_reads(self, tmp_path_factory, dims, docs, seed):
        trees = generate_treebank(f"checkpoint-{seed}", docs, max_tokens=12)
        vocab = Vocabulary.from_treebank(trees)
        config = ModelConfig(*dims)
        params = init_parameters(vocab, config, np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        loaded, _, _ = load_checkpoint(path)
        with np.load(path) as data:
            for key, array in loaded.items():
                stored = data[key]
                assert array.shape == stored.shape and array.dtype == stored.dtype
                assert array.tobytes() == stored.tobytes(), key

    @pytest.mark.parametrize("deflated", [False, True], ids=["stored", "deflated"])
    def test_single_bit_damage_fails_or_changes_nothing(self, setup, tmp_path,
                                                        deflated):
        # A flipped bit anywhere in the file either raises ModelError or
        # lies in a field that no reader uses (a time stamp, say).
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        if deflated:
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files}
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **arrays)
        original = path.read_bytes()
        rng = np.random.default_rng(5)
        damaged = tmp_path / "damaged.ckpt"
        failures = 0
        for pos, bit in zip(rng.integers(0, len(original), 300), rng.integers(0, 8, 300)):
            data = bytearray(original)
            data[pos] ^= 1 << bit
            damaged.write_bytes(data)
            try:
                loaded, _, _ = load_checkpoint(damaged)
            except ModelError as err:
                assert str(damaged) in str(err)
                failures += 1
                continue
            for key, array in params.items():
                assert np.array_equal(loaded[key], array), (pos, bit, key)
        assert failures > 200

    def test_shape_mismatch_rejected(self, setup, tmp_path):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        for key in ("label.b2", "lstm2f.Wx"):
            bad = {k: v.copy() for k, v in params.items()}
            bad[key] = np.zeros((bad[key].shape[0] + 1,) + bad[key].shape[1:])
            save_checkpoint(path, bad, vocab, config)
            with pytest.raises(ModelError, match=f"{key} has shape"):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, setup, tmp_path, value):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        bad = {k: v.copy() for k, v in params.items()}
        bad["combine.W1"][3, 1] = value
        save_checkpoint(path, bad, vocab, config)
        with pytest.raises(ModelError, match="combine.W1.*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: v["words"].__setitem__(2, v["words"][1]), "duplicate words"),
            (lambda v: v["chains"].__setitem__(1, v["chains"][0]), "duplicate chains"),
            (lambda v: v["chains"].__setitem__(1, None), "non-empty strings"),
            (lambda v: v["chains"].__setitem__(1, ""), "non-empty strings"),
            (lambda v: v.pop("chains"), "lacks chains"),
            (lambda v: v.pop("words"), "lacks words"),
        ],
        ids=["dup-word", "dup-chain", "none-chain", "empty-chain",
             "no-chains", "no-words"],
    )
    def test_inconsistent_vocabulary_rejected(self, setup, tmp_path, corrupt,
                                              message):
        _, vocab, config, params = setup
        data = copy.deepcopy(vocab.to_dict())
        corrupt(data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, SimpleNamespace(to_dict=lambda: data), config)
        with pytest.raises(ModelError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("words", 5, "word list must be a list of strings"),
            ("chains", [["a"]], "label chains must be a list of non-empty strings"),
            ("counts", [1, 2], "word counts must map strings to integers"),
        ],
    )
    def test_mistyped_vocabulary_rejected(self, setup, tmp_path, capsys, field,
                                          value, message):
        # A validation error, so `jointparse parse` exits 1, not 2.
        _, vocab, config, params = setup
        data = dict(vocab.to_dict(), **{field: value})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, SimpleNamespace(to_dict=lambda: data), config)
        with pytest.raises(ModelError, match=message):
            load_checkpoint(path)
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("a b\n")
        assert cli.main(["parse", "--model", str(path), "--input", str(tokens)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda m: m["config"].update(bogus=1), "config must hold exactly"),
            (lambda m: m["config"].pop("hidden_dim"), "config must hold exactly"),
            (lambda m: m.update(config=[50, 200, 200]), "config must hold exactly"),
            (lambda m: m.pop("config"), "config must hold exactly"),
            (lambda m: m.pop("vocabulary"), "lacks a vocabulary"),
            (lambda m: m["config"].update(hidden_dim="4"), "hidden_dim must be an"),
            (lambda m: m["config"].update(word_dim=0), "word_dim must be at least"),
        ],
        ids=["unknown-key", "missing-key", "non-dict", "no-config", "no-vocabulary",
             "string-dim", "zero-dim"],
    )
    def test_malformed_metadata_rejected(self, setup, tmp_path, corrupt, message):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"]))
        corrupt(meta)
        arrays["__meta__"] = np.array(json.dumps(meta))
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ModelError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta", ["[1, 2]", "5", '"text"', "{not json"],
        ids=["list", "number", "string", "invalid-json"],
    )
    def test_non_object_metadata_rejected(self, setup, tmp_path, meta):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["__meta__"] = np.array(meta)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ModelError, match="metadata is not a JSON object"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ModelError, match="checkpoint"):
            load_checkpoint(path)

    def test_save_replaces_the_file_not_its_contents(self, setup, tmp_path):
        # A hard link to the old file (as `train` makes `best.ckpt`) keeps
        # the old arrays; the new file holds the new ones.
        _, vocab, config, params = setup
        path, link = tmp_path / "epoch-1.ckpt", tmp_path / "best.ckpt"
        save_checkpoint(path, params, vocab, config)
        link.hardlink_to(path)
        changed = {key: array + 1.0 for key, array in params.items()}
        save_checkpoint(path, changed, vocab, config)
        old, new = load_checkpoint(link)[0], load_checkpoint(path)[0]
        for key in params:
            assert np.array_equal(old[key], params[key])
            assert np.array_equal(new[key], changed[key])
        assert sorted(p.name for p in tmp_path.iterdir()) == [link.name, path.name]

    def test_failed_save_leaves_the_old_file(self, setup, tmp_path, monkeypatch):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        saved = path.read_bytes()

        def crash(handle, **arrays):
            handle.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, params, vocab, config)
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _address(array):
    return array.__array_interface__["data"][0]


def _moved(array, elements):
    """A copy of `array` whose data starts `elements` float64s past a
    64-byte boundary."""
    raw = aligned(array.size + elements)
    copy = raw[elements:].reshape(array.shape)
    copy[...] = array
    return copy


class TestAlignment:
    @given(
        shapes=st.lists(
            st.lists(st.integers(0, 17), max_size=3).map(tuple), max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_aligned_views_tile_one_buffer(self, shapes, seed):
        # An empty array has no data to align; numpy may point it anywhere.
        for shape in shapes:
            array = aligned(shape)
            assert array.shape == shape and array.dtype == np.float64
            assert array.flags.c_contiguous
            assert _address(array) % 64 == 0 or not array.size
        views = aligned_views({f"p{k}": shape for k, shape in enumerate(shapes)})
        assert [view.shape for view in views.values()] == shapes
        assert all(v.flags.c_contiguous for v in views.values())
        assert all(_address(v) % 64 == 0 for v in views.values() if v.size)
        spans = sorted((_address(v), v.nbytes) for v in views.values() if v.size)
        assert all(a + n <= b for (a, n), (b, _) in zip(spans, spans[1:]))
        # Writes land in the one buffer: each view reads back its own values
        # and the buffer holds them at the view's offset.
        rng = np.random.default_rng(seed)
        values = {key: rng.normal(size=view.shape) for key, view in views.items()}
        for key, view in views.items():
            view[...] = values[key]
        for key, view in views.items():
            assert np.array_equal(view, values[key])
            if view.size:
                base = view.base
                start = (_address(view) - _address(base)) // 8
                flat = base[start : start + view.size]
                assert np.array_equal(flat, values[key].ravel())

    def test_default_dims_streamed_arrays_start_on_cache_lines(self, tmp_path):
        # The arrays a recurrent step or an update streams: parameters made
        # or loaded, Adam's moments, the halved recurrent weights, and the
        # LSTM caches' states and cells.
        from jointparse.trainer import Adam

        trees = generate_treebank("alignment", 3, max_tokens=10)
        vocab = Vocabulary.from_treebank(trees)
        config = ModelConfig()
        params = init_parameters(vocab, config, np.random.default_rng(1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        loaded, _, _ = load_checkpoint(path)
        adam = Adam(params)
        arrays = [*params.values(), *loaded.values(), *adam.m.values(),
                  *adam.v.values()]
        assert all(not moment.any() for moment in (*adam.m.values(), *adam.v.values()))
        xs = np.random.default_rng(2).normal(size=(7, config.word_dim))
        arrays.append(_halved(params, "lstm1f", xs)[1])
        enc = encode(params, [1, 2, 3, 4, 5])
        for cache in enc.caches.values():
            arrays += [cache.states, cache.cells]
        misaligned = [a.shape for a in arrays if _address(a) % 64]
        assert not misaligned

    @given(
        offset=st.integers(1, 7),
        hidden=st.integers(1, 24),
        in_dim=st.integers(1, 12),
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(offset=2, hidden=200, in_dim=50, lengths=[30], seed=0)
    @example(offset=2, hidden=200, in_dim=400, lengths=[12, 9], seed=1)
    @settings(max_examples=40, deadline=None)
    def test_lstm_outputs_do_not_depend_on_weight_alignment(
        self, offset, hidden, in_dim, lengths, seed
    ):
        # Moving the weights 8-56 bytes off a cache line leaves the forward's
        # states and the backward's gradients bit-identical: alignment may
        # change only the speed.
        rng = np.random.default_rng(seed)
        H = hidden
        params = {
            "t.Wx": rng.normal(size=(4 * H, in_dim)) * 0.3,
            "t.Wh": rng.normal(size=(4 * H, H)) * 0.3,
            "t.b": rng.normal(size=4 * H) * 0.3,
        }
        sequences = [rng.normal(size=(n, in_dim)) for n in lengths]
        d_states = rng.normal(size=(lengths[0] + 1, H))
        results = []
        for shift in (0, offset):
            moved = {key: _moved(array, shift) for key, array in params.items()}
            caches = _lstm_forward(moved, "t", sequences)
            lone = _lstm_forward(moved, "t", sequences[:1])[0]
            grads = {}
            d_inputs = _lstm_backward(moved, "t", lone, d_states, grads)
            # The step loop itself, on halved weights moved off a cache line.
            inputs, half = _halved(moved, "t", sequences[0])
            states, cells = np.zeros((2, lengths[0] + 1, H))
            _lstm_steps(_moved(half, shift), inputs, states, cells)
            results.append(
                [c.states for c in caches] + [lone.cells, d_inputs, states, cells]
                + [grads[key] for key in sorted(grads)]
            )
        for aligned_result, moved_result in zip(*results):
            assert np.array_equal(aligned_result, moved_result)


def test_span_scorer_interface(setup):
    _, vocab, _, params = setup
    scorer = SpanScorer(params, vocab)
    scorer.prepare([["w1", "w2", "w3"]])
    scorer.select(0)
    pair = scorer.structural(-1, 0, 1)
    assert len(pair) == 2 and all(type(score) is float for score in pair)
    labels = scorer.labels([0, 1], [1, 1], [2, 2])  # one row per site
    assert labels.shape == (2, vocab.label_dim)
    assert scorer.inventory()[0] is None


def test_prepared_scorer_keeps_only_head_rows(setup):
    _, vocab, _, params = setup
    scorer = SpanScorer(params, vocab)
    for words in (["w1", "w2", "w3"], ["w4"]):
        scorer.prepare([words])
        scorer.select(0)
        assert scorer.enc.caches == {}
        assert scorer.enc.boundary is None
        for blocks in scorer.enc.heads.values():
            assert all(rows.shape[0] == len(words) + 1 for rows in blocks)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=6)
    | st.tuples(st.integers(1, 60), st.integers(2, 6)).map(lambda nb: [nb[0]] * nb[1]),
    unit_rows=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_group_head_rows_match_one_document_encode(setup, lengths, unit_rows, seed):
    # A group's batched recurrence gives every document the head rows that
    # encoding it alone gives, at all its boundaries or at its unit
    # boundaries only; a group of one gives all of them bit for bit.
    _, vocab, _, params = setup
    rng = np.random.default_rng(seed)
    documents = [list(rng.choice(vocab.words, n)) for n in lengths]
    bounds = None
    if unit_rows:
        bounds = [
            sorted({0, n, *rng.integers(0, n + 1, rng.integers(0, n + 1)).tolist()})
            for n in lengths
        ]
    scorer = SpanScorer(params, vocab)
    scorer.prepare(documents, bounds)
    for k, words in enumerate(documents):
        scorer.select(k)
        alone = encode(params, [vocab.token_id(w) for w in words])
        rows = bounds[k] if unit_rows else slice(None)
        for head, blocks in alone.heads.items():
            for want, got in zip(blocks, scorer.enc.heads[head]):
                want = want[rows]
                if len(documents) == 1 and not unit_rows:
                    assert np.array_equal(got, want)
                else:
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_parse_memory_stays_within_one_group(monkeypatch):
    # The traced peak of parsing, above the trees it returns, is one
    # group's: the same for 32 documents of 300-400 tokens as for 8, and
    # far below what one group of all 32 takes.  Gold EDUs of 25 tokens
    # keep the decoding, which tracing slows, short.
    words = [f"w{k}" for k in range(400)]
    vocab = Vocabulary(["<unk>", *words], {}, ["<-Elaboration", "NP", "S"])
    config = ModelConfig(word_dim=8, hidden_dim=32, scorer_hidden=16)
    params = init_parameters(vocab, config, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    documents = [list(rng.choice(words, rng.integers(300, 401))) for _ in range(32)]
    edus = [
        [EduSpan(start, min(start + 25, len(doc))) for start in range(0, len(doc), 25)]
        for doc in documents
    ]

    def working_memory(count):
        tracemalloc.start()
        try:
            trees = parse_documents(
                SpanScorer(params, vocab), documents[:count], edus[:count]
            )
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trees) == count
        return peak - current

    few, many = working_memory(8), working_memory(32)
    assert many <= 1.1 * few, (few, many)
    monkeypatch.setattr(transition, "GROUP_TOKENS", 400 * len(documents))
    assert working_memory(32) >= 4 * many


def test_prepare_keeps_memory_per_token_within_states_and_cells():
    # Per token, what `prepare` may hold at its peak, in floats: each of the
    # four LSTMs' hidden states and cells (8H), the first layer's output
    # (2H), the boundary features (4H), one LSTM's input projection (4H),
    # the embeddings, and the eight projected head rows.  Keeping each
    # step's gates and tanh(c) as well would add 20H.
    doc = deep_tree(200)  # 401 tokens
    vocab = Vocabulary.from_treebank([doc])
    config = ModelConfig(word_dim=8, hidden_dim=8, scorer_hidden=12)
    params = init_parameters(vocab, config, np.random.default_rng(1))
    scorer = SpanScorer(params, vocab)
    words = [t.text for t in doc.tokens]
    H, hs = config.hidden_dim, config.scorer_hidden
    per_token = 8 * (18 * H + config.word_dim + 8 * hs)
    tracemalloc.start()
    try:
        scorer.prepare([words])
        scorer.select(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_token * len(words), (peak, per_token * len(words))


def _per_site_decode(params, vocab, words, edus=None):
    """Greedy decoding one decision at a time: every step scored alone by
    `structural_raw_scores` or `label_raw_scores`, and its best legal slot
    taken by an argmax over the masked scores (two-way for structure)."""
    enc = encode(params, [vocab.token_id(w) for w in words])

    def best(raw, legal):
        return int(np.argmax(np.where(legal, raw, -np.inf)))

    def structural(state, below, left, right, legal):
        return best(structural_raw_scores(params, enc, below, left, right), legal)

    def label(state, left, mid, right, legal):
        return best(label_raw_scores(params, enc, left, mid, right), legal)

    spans = derive(len(words), vocab.inventory(), structural, label, edus)
    return reconstruct(spans, list(words))


class TestGreedyDecoding:
    @pytest.fixture(scope="class")
    def model_and_docs(self):
        docs = generate_treebank("decoding-tests", 24, max_tokens=40, max_edus=6)
        vocab = Vocabulary.from_treebank(docs)
        config = ModelConfig(word_dim=8, hidden_dim=8, scorer_hidden=12)
        rng = np.random.default_rng(20)
        # Every parameter random, biases included.
        params = {
            key: array + rng.normal(scale=0.1, size=array.shape)
            for key, array in init_parameters(vocab, config, rng).items()
        }
        return params, vocab, docs

    @pytest.mark.parametrize("block", [7, LOSS_BLOCK])
    @pytest.mark.parametrize("gold_edus", [False, True])
    def test_stacked_labels_decode_as_per_site_decisions(
        self, model_and_docs, monkeypatch, block, gold_edus
    ):
        params, vocab, docs = model_and_docs
        monkeypatch.setattr(transition, "LOSS_BLOCK", block)
        scorer = SpanScorer(params, vocab)
        for doc in docs:
            words = [t.text for t in doc.tokens]
            edus = extract_edus(doc) if gold_edus else None
            got = write_joint(parse_greedy(scorer, words, edus))
            assert got == write_joint(_per_site_decode(params, vocab, words, edus))


def test_decoding_memory_after_prepare_is_bounded_by_label_blocks():
    # 380 tokens at the default dims with a 231-slot inventory: the label
    # pass holds the scores of one block of LOSS_BLOCK sites at a time (the
    # peak reads about 1.7 MiB); stacking all 759 sites at once reads 4.1.
    words = [f"w{k}" for k in range(380)]
    vocab = Vocabulary(["<unk>", *words], {}, [f"C{k}" for k in range(230)])
    params = init_parameters(vocab, ModelConfig(), np.random.default_rng(3))
    scorer = SpanScorer(params, vocab)
    scorer.prepare([words])
    scorer.select(0)
    # keep the encoding made above
    scorer.prepare = scorer.select = lambda *args: None
    tracemalloc.start()
    try:
        parse_greedy(scorer, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak


def test_zero_gradients_match_shapes(setup):
    _, _, _, params = setup
    grads = zero_gradients(params)
    assert set(grads) == set(params)
    assert all(grads[k].shape == params[k].shape for k in params)
