import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from jointparse.model import (
    LOSS_BLOCK,
    LabelStep,
    ModelConfig,
    ModelError,
    SpanScorer,
    StructuralStep,
    Vocabulary,
    encode,
    _encoder_backward,
    _lstm_forward,
    init_parameters,
    label_raw_scores,
    load_checkpoint,
    loss_and_gradients,
    make_dropout_masks,
    sample_hidden_mask,
    save_checkpoint,
    structural_raw_scores,
    zero_gradients,
)
from jointparse.synthetic import generate_treebank


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
        out1 = out1 * masks.layer1
    l2f, l2b = run("lstm2f", out1), run("lstm2b", out1[::-1])[::-1]
    F = np.concatenate([l1f, l1b, l2f, l2b], axis=1)
    return F * masks.features if masks is not None else F


def _reference_score(params, boundary, head, positions, hmask):
    """A head applied to the concatenated boundary vectors; the sentinel
    boundary -1 reads zeros."""
    zero = np.zeros(boundary.shape[1])
    x = np.concatenate([boundary[p] if p >= 0 else zero for p in positions])
    hidden = np.maximum(params[f"{head}.W1"] @ x + params[f"{head}.b1"], 0.0)
    if hmask is not None:
        hidden = hidden * hmask
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
            keep = np.ones_like(pre) if hmask is None else hmask
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
        # With a zero input a one-step run's pre-activations are `b`, so its
        # gates are sigmoid on the i, f and o blocks and tanh on g at chosen
        # points.  The tanh form of the sigmoid flushes it to 0 below about
        # -37, where the two-branch form is subnormal, so the check is absolute.
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
        H = 77  # 4004 points in 52 runs
        for z in x.reshape(-1, H):
            cache = _lstm_forward(
                np.zeros((4 * H, 1)), np.zeros((4 * H, H)), np.tile(z, 4),
                np.zeros((1, 1)),
            )
            gates = cache.gates[0].reshape(4, H)
            for k in range(3):
                np.testing.assert_allclose(gates[k], two_branch(z), rtol=0,
                                           atol=2.3e-16)
            np.testing.assert_allclose(gates[3], np.tanh(z), rtol=0, atol=2.3e-16)

    def test_empty_document_rejected(self, setup):
        _, _, _, params = setup
        with pytest.raises(ModelError):
            encode(params, [])

    def test_factored_scoring_matches_per_step_reference(self, setup):
        _, vocab, config, params = setup
        words = vocab.words[1:8]
        ids = [vocab.token_id(w) for w in words]
        scorer = SpanScorer(params, vocab)
        scorer.prepare(words)
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
                                     hmask_shift),
                    _reference_score(params, boundary, "combine", (below, left, right),
                                     hmask_combine),
                ]
                got = structural_raw_scores(
                    params, enc, below, left, right, hmask_shift, hmask_combine
                )[0]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
                if masks is None:
                    got = scorer.structural(below, left, right)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
            # (i, i, i+1) is a width-1 span: its midpoint is its left boundary.
            for left, mid, right in [(0, 0, 1), (6, 6, 7), (0, 3, 7), (2, 4, 5)]:
                label_hmask = hmask()
                expected = _reference_score(
                    params, boundary, "label", (left, mid, right), label_hmask
                )
                got = label_raw_scores(params, enc, left, mid, right, label_hmask)[0]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
                if masks is None:
                    got = scorer.labels(left, mid, right)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


class TestLoss:
    def test_zero_steps(self, setup):
        _, _, _, params = setup
        loss, grads = loss_and_gradients(params, [1, 2], [])
        assert loss == 0.0
        assert all(not array.any() for array in grads.values())

    def test_duplicated_step_doubles_contribution(self, setup):
        _, _, _, params = setup
        step = StructuralStep(
            below=-1, left=0, right=1, legal=(True, False), target=0
        )
        label = _label_step(params)
        one, _ = loss_and_gradients(params, [1, 2], [step, label])
        two, _ = loss_and_gradients(params, [1, 2], [step, label, label])
        single, _ = loss_and_gradients(params, [1, 2], [step])
        assert two - one == pytest.approx(one - single)

    def test_dropout_masks_change_loss_but_not_shape(self, setup):
        _, _, config, params = setup
        rng = np.random.default_rng(0)
        masks = make_dropout_masks(2, config, 0.5, rng)
        label = _label_step(params)
        loss_plain, grads_plain = loss_and_gradients(params, [1, 2], [label])
        loss_drop, grads_drop = loss_and_gradients(params, [1, 2], [label], masks)
        assert set(grads_plain) == set(grads_drop)
        assert loss_plain != pytest.approx(loss_drop)

    def test_nonfinite_loss_reported_with_step(self, setup):
        _, _, _, params = setup
        broken = {k: v.copy() for k, v in params.items()}
        broken["label.b2"] = broken["label.b2"] + np.nan
        label = _label_step(params)
        with pytest.raises(ModelError, match="step 0"):
            loss_and_gradients(broken, [1, 2], [label])


    def test_illegal_target_reported_with_step(self, setup):
        _, _, _, params = setup
        legal = _label_step(params)
        illegal = _label_step(params, target=0)
        illegal.legal[0] = False  # the driver's mask at the full-document span
        with pytest.raises(ModelError, match="(?s)step 1 .*target slot 0 is not legal"):
            loss_and_gradients(params, [1, 2], [legal, illegal])
        shift = StructuralStep(below=-1, left=0, right=1, legal=(False, True), target=0)
        with pytest.raises(ModelError, match="(?s)step 0 .*target slot 0 is not legal"):
            loss_and_gradients(params, [1, 2], [shift])


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
        loss, grads = loss_and_gradients(params, ids, steps, masks)
        want_loss, want = _reference_loss(params, ids, steps, masks)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
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
            loss_and_gradients(params, [1, 2], [ok, poisoned, illegal, ok])
        with pytest.raises(ModelError, match="(?s)step 1 .*target slot 0 is not legal"):
            loss_and_gradients(params, [1, 2], [ok, illegal, poisoned, ok])


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
        "corrupt, message",
        [
            (lambda m: m["config"].update(bogus=1), "config must hold exactly"),
            (lambda m: m["config"].pop("hidden_dim"), "config must hold exactly"),
            (lambda m: m.update(config=[50, 200, 200]), "config must hold exactly"),
            (lambda m: m.pop("config"), "config must hold exactly"),
            (lambda m: m.pop("vocabulary"), "lacks a vocabulary"),
        ],
        ids=["unknown-key", "missing-key", "non-dict", "no-config", "no-vocabulary"],
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


def test_span_scorer_interface(setup):
    _, vocab, _, params = setup
    scorer = SpanScorer(params, vocab)
    scorer.prepare(["w1", "w2", "w3"])
    pair = scorer.structural(-1, 0, 1)
    assert pair.shape == (2,)
    labels = scorer.labels(0, 1, 2)
    assert labels.shape == (vocab.label_dim,)
    assert scorer.inventory()[0] is None


def test_prepared_scorer_keeps_only_head_rows(setup):
    _, vocab, _, params = setup
    scorer = SpanScorer(params, vocab)
    for words in (["w1", "w2", "w3"], ["w4"]):
        scorer.prepare(words)
        assert scorer.enc.caches == {}
        assert scorer.enc.boundary is None
        for blocks in scorer.enc.heads.values():
            assert all(rows.shape[0] == len(words) + 1 for rows in blocks)


def test_zero_gradients_match_shapes(setup):
    _, _, _, params = setup
    grads = zero_gradients(params)
    assert set(grads) == set(params)
    assert all(grads[k].shape == params[k].shape for k in params)
