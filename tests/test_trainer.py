import math
import tracemalloc

import numpy as np
import pytest
from conftest import deep_tree

from jointparse import model, trainer, transition
from jointparse.model import (
    LabelStep,
    ModelConfig,
    SpanScorer,
    StructuralStep,
    Vocabulary,
    encode,
    init_parameters,
    load_checkpoint,
    loss_and_gradients,
)
from jointparse.synthetic import generate_treebank
from jointparse.trainer import Adam, TrainConfig, TrainingDiverged, rollout, train
from jointparse.transition import (
    STRUCTURAL_ACTIONS,
    derive,
    dynamic_oracle,
    legal_actions,
    parse_greedy,
    slot_action,
    unit_gold_map,
)
from jointparse.trees import extract_edus, is_discourse_chain, labeled_spans

SMALL_MODEL = ModelConfig(word_dim=8, hidden_dim=8, scorer_hidden=12)


@pytest.fixture(scope="module")
def corpus():
    return generate_treebank("trainer-tests", 6, max_tokens=12, max_edus=4)


@pytest.fixture(scope="module")
def fresh(corpus):
    vocab = Vocabulary.from_treebank(corpus)
    params = init_parameters(vocab, SMALL_MODEL, np.random.default_rng(9))
    return vocab, params


def oracle_free_config(**kwargs):
    defaults = dict(beta=1.0, dropout=0.0, unk_replace=0.0, dev_size=0, epochs=2)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def recording_derive(calls, derived):
    """`transition.derive` with its two choosers wrapped: appends every
    chooser call as (state, legal mask, picked action) to `calls` and the
    derivation's labeled spans to `derived`."""

    def recording(n, chains, choose_structural, choose_label, edus=None):
        def structural(state, below, left, right, legal):
            pick = choose_structural(state, below, left, right, legal)
            calls.append((state, legal, STRUCTURAL_ACTIONS[pick]))
            return pick

        def label(state, left, mid, right, legal):
            pick = choose_label(state, left, mid, right, legal)
            calls.append((state, legal, slot_action(chains, pick)))
            return pick

        derived.append(derive(n, chains, structural, label, edus))
        return derived[-1]

    return recording


def recorded_rollout(monkeypatch, gold, params, vocab, config, seed):
    """`rollout` with the choosers it hands `trainer.derive` wrapped: returns
    the example, every chooser call as (state, legal mask, picked action),
    and the derivation's labeled spans."""
    calls, derived = [], []
    monkeypatch.setattr(trainer, "derive", recording_derive(calls, derived))
    example = rollout(
        gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(seed)
    )
    (spans,) = derived
    assert len(example.steps) == len(calls)
    return example, calls, spans


def target_actions(example, vocab):
    return [
        slot_action(vocab.inventory(), step.target) if isinstance(step, LabelStep)
        else STRUCTURAL_ACTIONS[step.target]
        for step in example.steps
    ]


class TestRollout:
    def test_beta_one_reproduces_gold(self, corpus, fresh, monkeypatch):
        vocab, params = fresh
        config = oracle_free_config()
        for gold in corpus:
            example, calls, spans = recorded_rollout(
                monkeypatch, gold, params, vocab, config, 0
            )
            assert [action for _, _, action in calls] == target_actions(example, vocab)
            assert spans == labeled_spans(gold)

    def test_targets_are_legal_and_oracle_optimal(self, corpus, fresh, monkeypatch):
        # Legal under the shared rule, with the discourse-only label mask
        # in gold-EDU mode.
        vocab, params = fresh
        gold = next(d for d in corpus if len(extract_edus(d)) >= 3)
        for mode, edus in (("end2end", None), ("goldedu", extract_edus(gold))):
            config = oracle_free_config(beta=0.3, mode=mode)
            gold_map = unit_gold_map(gold, edus)
            example, calls, _ = recorded_rollout(
                monkeypatch, gold, params, vocab, config, 4
            )
            labels = 0
            for (state, _, followed), target in zip(
                calls, target_actions(example, vocab)
            ):
                legal = legal_actions(state, vocab.chains, edus is not None)
                assert target in dynamic_oracle(state, gold_map)
                assert target in legal
                assert followed in legal
                labels += state.midpoint is not None
            assert labels

    def test_fixed_seed_reproducible(self, corpus, fresh, monkeypatch):
        vocab, params = fresh
        config = TrainConfig(beta=0.5, dropout=0.5, dev_size=0, epochs=1)
        first_ex, first_calls, _ = recorded_rollout(
            monkeypatch, corpus[0], params, vocab, config, 7
        )
        second_ex, second_calls, _ = recorded_rollout(
            monkeypatch, corpus[0], params, vocab, config, 7
        )
        assert np.array_equal(first_ex.enc.ids, second_ex.enc.ids)
        assert [a for _, _, a in first_calls] == [a for _, _, a in second_calls]
        assert [s.target for s in first_ex.steps] == [s.target for s in second_ex.steps]

    def test_beta_zero_is_greedy_decode(self, corpus, fresh, monkeypatch):
        # At beta 0 every structural pick is the model's, so the rollout
        # builds greedy decoding's spans; a label step takes its gold target
        # at any beta, so each label is its span's gold chain or no-label.
        # Gold-EDU mode derives over EDUs, and EDU placeholder labels are
        # applied without a chooser call.
        vocab, params = fresh
        scorer = SpanScorer(params, vocab)

        def extents(calls):
            return [state.top for state, _, _ in calls if state.midpoint is not None]

        for mode in ("end2end", "goldedu"):
            config = oracle_free_config(beta=0.0, mode=mode)
            for gold in (d for d in corpus if len(extract_edus(d)) >= 2):
                edus = extract_edus(gold) if mode == "goldedu" else None
                _, calls, _ = recorded_rollout(
                    monkeypatch, gold, params, vocab, config, 0
                )
                greedy_calls = []
                monkeypatch.setattr(
                    transition, "derive", recording_derive(greedy_calls, [])
                )
                parse_greedy(scorer, [t.text for t in gold.tokens], edu_spans=edus)
                assert extents(calls) == extents(greedy_calls)
                gold_map = unit_gold_map(gold, edus)
                for state, _, action in calls:
                    if state.midpoint is not None:
                        assert action.chain == gold_map.get(state.top)

    def test_tied_scores_target_and_pick_shift(self, corpus, fresh, monkeypatch):
        # Every structural step scores shift and combine alike.  Where the
        # oracle allows both, the target is the model's pick, and on a tie
        # that pick is shift (`best_structural`); at beta 0 every draw
        # misses, so the rollout takes it too.
        vocab, params = fresh
        tied = dict(params)
        for head in ("shift", "combine"):
            tied[f"{head}.w2"] = np.zeros_like(params[f"{head}.w2"])
            tied[f"{head}.b2"] = np.full_like(params[f"{head}.b2"], 0.25)
        config = oracle_free_config(beta=0.0)
        both = 0
        for gold in corpus:
            example, calls, _ = recorded_rollout(
                monkeypatch, gold, tied, vocab, config, 0
            )
            gold_map = unit_gold_map(gold, None)
            for step, (state, _, action) in zip(example.steps, calls):
                if state.midpoint is None and len(dynamic_oracle(state, gold_map)) == 2:
                    assert step.target == 0
                    assert action == STRUCTURAL_ACTIONS[0]
                    both += 1
        assert both

    @pytest.mark.parametrize("mode", ["end2end", "goldedu"])
    def test_label_steps_are_not_scored(self, corpus, fresh, monkeypatch, mode):
        def refuse(*args):
            raise AssertionError("the rollout scored a label step")

        monkeypatch.setattr(model, "label_raw_scores", refuse)
        monkeypatch.setattr(trainer, "label_raw_scores", refuse, raising=False)
        vocab, params = fresh
        config = oracle_free_config(beta=0.5, dropout=0.5, mode=mode)
        for seed, gold in enumerate(corpus):
            example = rollout(
                gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(seed)
            )
            assert example.steps

    def test_gold_edu_rollout_targets_discourse_only(self, corpus, fresh, monkeypatch):
        vocab, params = fresh
        config = oracle_free_config(mode="goldedu")
        gold = next(d for d in corpus if len(extract_edus(d)) >= 2)
        example, calls, _ = recorded_rollout(
            monkeypatch, gold, params, vocab, config, 1
        )
        m = len(extract_edus(gold))
        kinds = [action.kind for _, _, action in calls]
        assert kinds.count("shift") == m
        assert kinds.count("combine") == m - 1
        for step in example.steps:
            if isinstance(step, LabelStep) and step.target > 0:
                assert is_discourse_chain(vocab.chains[step.target - 1])

    @pytest.mark.parametrize("mode", ["end2end", "goldedu"])
    def test_steps_carry_the_driver_masks(self, corpus, fresh, monkeypatch, mode):
        vocab, params = fresh
        config = oracle_free_config(beta=0.5, dropout=0.5, mode=mode)
        docs = [d for d in corpus if len(extract_edus(d)) >= 2]
        assert docs
        for gold in docs:
            example, calls, _ = recorded_rollout(
                monkeypatch, gold, params, vocab, config, 2
            )
            n = len(gold.tokens)
            for step, (_, legal, _) in zip(example.steps, calls):
                assert step.legal is legal
                assert legal[step.target]
            first = example.steps[0]
            assert isinstance(first, StructuralStep) and first.legal == (True, False)
            (root,) = [
                s for s in example.steps
                if isinstance(s, LabelStep) and (s.left, s.right) == (0, n)
            ]
            assert not root.legal[0]
            # Each label step keeps its own mask.
            label_masks = [s.legal for s in example.steps if isinstance(s, LabelStep)]
            assert len({id(m) for m in label_masks}) == len(label_masks)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_memory_is_linear_in_document_length(self, dropout):
        # The peak of one rollout and its loss on a 2n-token document stays
        # within about twice the peak on an n-token one: nothing kept per
        # step may grow with the document.
        def peak(doc):
            vocab = Vocabulary.from_treebank([doc])
            params = init_parameters(vocab, SMALL_MODEL, np.random.default_rng(1))
            config = TrainConfig(beta=0.8, dropout=dropout)
            tracemalloc.start()
            try:
                example = rollout(
                    doc, params, vocab, SMALL_MODEL, config, np.random.default_rng(2)
                )
                loss_and_gradients(params, example.enc, example.steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(deep_tree(100)), peak(deep_tree(200))  # 201, 401 tokens
        assert long <= 2.3 * short, (short, long)

    def test_memory_per_token_holds_states_cells_and_gates(self):
        # Per token, what one rollout and its loss may hold at their peak, in
        # floats: each of the four LSTMs' states, cells and gates (24H), the
        # first layer's output (2H), the boundary features, their gradient
        # and one block's product (12H), the dropout masks (under H), the
        # embeddings, and the projected rows' gradients (8 scorer_hidden);
        # then about 1.6 KB of steps with their hidden masks, and the head
        # gradients, which do not grow with the document.  Keeping tanh(c)
        # as well would add 4H, and keeping the projected rows through the
        # projection's backward 8 scorer_hidden.
        doc = deep_tree(200)  # 401 tokens
        config = ModelConfig(word_dim=8, hidden_dim=32, scorer_hidden=16)
        vocab = Vocabulary.from_treebank([doc])
        params = init_parameters(vocab, config, np.random.default_rng(1))
        tracemalloc.start()
        try:
            example = rollout(doc, params, vocab, config, TrainConfig(dropout=0.5),
                              np.random.default_rng(2))
            loss_and_gradients(params, example.enc, example.steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        H, hs = config.hidden_dim, config.scorer_hidden
        per_token = 8 * (39 * H + config.word_dim + 8 * hs) + 2048
        heads = sum(
            array.nbytes for key, array in params.items()
            if key.partition(".")[0] in model.HEAD_BLOCKS
        )
        bound = per_token * len(doc.tokens) + heads
        assert peak <= bound, (peak, bound)


    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("mode", ["end2end", "goldedu"])
    def test_loss_on_rollout_encoding_equals_fresh_encode(
        self, corpus, fresh, mode, dropout
    ):
        vocab, params = fresh
        config = oracle_free_config(beta=0.5, dropout=dropout, mode=mode)
        rng = np.random.default_rng(3)
        checked = 0
        for gold in corpus:
            example = rollout(gold, params, vocab, SMALL_MODEL, config, rng)
            enc = example.enc
            assert (enc.masks is not None) == (dropout > 0.0)
            if not example.steps:
                continue
            want_loss, want = loss_and_gradients(
                params, encode(params, enc.ids, enc.masks), example.steps
            )
            loss, grads = loss_and_gradients(params, enc, example.steps)
            assert loss == want_loss
            assert grads.keys() == want.keys()
            for key, array in want.items():
                assert np.array_equal(grads[key], array), key
            checked += 1
        assert checked


class TestAdam:
    def test_moves_toward_minimum(self):
        params = {"x": np.array([4.0, -2.0])}
        adam = Adam(params, learning_rate=0.1, clip_norm=0.0)
        for _ in range(300):
            adam.update(params, {"x": 2.0 * params["x"]})
        assert np.allclose(params["x"], 0.0, atol=1e-3)

    def test_clipping_bounds_step(self):
        params = {"x": np.zeros(3)}
        adam = Adam(params, learning_rate=1.0, clip_norm=1.0)
        adam.update(params, {"x": np.full(3, 1e6)})
        assert np.linalg.norm(params["x"]) < 2.0

    @pytest.mark.parametrize("clip_norm", [0.0, 1.0])
    def test_matches_out_of_place_formula_bit_for_bit(self, clip_norm):
        # The update written out of place in its own order, with the clip
        # scale and the bias corrections folded into scalars, as the
        # reference; the textbook order on the clipped gradient agrees with
        # it to within rounding.
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        shapes = {"w": (7, 5), "b": (5,), "s": (1,)}
        params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        expected = {k: v.copy() for k, v in params.items()}
        textbook = {k: v.copy() for k, v in params.items()}
        m, v, tm, tv = ({k: np.zeros(shape) for k, shape in shapes.items()}
                        for _ in range(4))
        adam = Adam(params, lr, clip_norm)
        clipped_steps = 0
        for t in range(1, 21):
            grads = {k: rng.normal(size=shape) * 3.0 for k, shape in shapes.items()}
            total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
            scale = clip_norm / total if 0.0 < clip_norm < total else 1.0
            clipped_steps += scale < 1.0
            root2 = math.sqrt(1.0 - beta2**t)
            step = lr * root2 / (1.0 - beta1**t)
            for key, grad in grads.items():
                m[key] = beta1 * m[key] + grad * ((1.0 - beta1) * scale)
                v[key] = beta2 * v[key] + grad**2 * ((1.0 - beta2) * scale * scale)
                expected[key] = expected[key] - step * (
                    m[key] / (np.sqrt(v[key]) + eps * root2)
                )
                clipped = grad * scale
                tm[key] = beta1 * tm[key] + (1.0 - beta1) * clipped
                tv[key] = beta2 * tv[key] + (1.0 - beta2) * clipped**2
                textbook[key] = textbook[key] - lr * (tm[key] / (1.0 - beta1**t)) / (
                    np.sqrt(tv[key] / (1.0 - beta2**t)) + eps
                )
            adam.update(params, grads)
            for key in shapes:
                assert np.array_equal(params[key], expected[key])
                assert np.array_equal(adam.m[key], m[key])
                assert np.array_equal(adam.v[key], v[key])
                np.testing.assert_allclose(params[key], textbook[key], rtol=1e-12, atol=0)
                for moment, want in ((adam.m, tm), (adam.v, tv)):
                    error = np.abs(moment[key] - want[key]).max()
                    assert error <= 1e-12 * np.abs(want[key]).max(), key
        assert clipped_steps == (20 if clip_norm else 0)


class TestTrain:
    def test_nan_structural_score_diverges_at_the_step(self, corpus, monkeypatch):
        # The rollout's chooser raises on a non-finite pick, as greedy
        # decoding does, before the loss would see the step.
        def nan_shift_bias(*args):
            params = init_parameters(*args)
            params["shift.b2"][0] = np.nan
            return params

        monkeypatch.setattr(trainer, "init_parameters", nan_shift_bias)
        with pytest.raises(
            TrainingDiverged,
            match=r"epoch 1, document \d+: no legal action has finite score",
        ):
            train(corpus, oracle_free_config(), SMALL_MODEL)

    def test_seeded_runs_are_identical(self, corpus):
        def stable(history):
            return [
                {k: v for k, v in entry.items() if k != "seconds"}
                for entry in history
            ]

        config = oracle_free_config(epochs=2, seed=13)
        first = train(corpus, config, SMALL_MODEL)
        second = train(corpus, config, SMALL_MODEL)
        assert stable(first.history) == stable(second.history)
        for key in first.params:
            assert np.array_equal(first.params[key], second.params[key])

    def test_best_checkpoint_is_max_dev_epoch(self, corpus):
        config = oracle_free_config(epochs=3, seed=3)
        result = train(corpus, config, SMALL_MODEL)
        best = max(entry["dev_overall_f1"] for entry in result.history)
        assert result.best_f1 == best
        assert result.history[result.best_epoch - 1]["dev_overall_f1"] == best

    def test_checkpoint_files_written(self, corpus, tmp_path):
        config = oracle_free_config(epochs=2, seed=5)
        train(corpus, config, SMALL_MODEL, out_dir=str(tmp_path))
        assert (tmp_path / "epoch-1.ckpt").exists()
        assert (tmp_path / "epoch-2.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        params, vocab, config_loaded = load_checkpoint(tmp_path / "best.ckpt")
        assert config_loaded == SMALL_MODEL
        assert vocab.words[0] == "<unk>"
        assert params["embed"].shape[0] == vocab.n_words

    def test_best_checkpoint_holds_best_epoch_arrays(
        self, corpus, tmp_path, monkeypatch
    ):
        # Epoch 2 is the best; epoch 3, written after it, is not.
        scores = iter([10.0, 50.0, 20.0])

        def scripted_metrics(*args):
            f1 = next(scores)
            return {"overall_f1": f1, "struct_f1": f1, "nuc_f1": f1, "rel_f1": f1}

        monkeypatch.setattr(trainer, "dev_metrics", scripted_metrics)
        config = oracle_free_config(epochs=3, seed=5)
        result = train(corpus, config, SMALL_MODEL, out_dir=str(tmp_path))
        assert result.best_epoch == 2
        best, _, _ = load_checkpoint(tmp_path / "best.ckpt")
        second, _, _ = load_checkpoint(tmp_path / "epoch-2.ckpt")
        third, _, _ = load_checkpoint(tmp_path / "epoch-3.ckpt")
        assert best.keys() == second.keys() == result.params.keys()
        for key in best:
            assert np.array_equal(best[key], second[key])
            assert np.array_equal(best[key], result.params[key])
        assert any(not np.array_equal(best[key], third[key]) for key in best)

    @pytest.mark.parametrize("links", [True, False])
    def test_best_checkpoint_is_the_best_epochs_file(
        self, corpus, tmp_path, monkeypatch, links
    ):
        # `best.ckpt` is a hard link to the best epoch's file, or a copy of it
        # where the file system refuses links; a second run into the same
        # directory replaces it, and no temporary file is left behind.
        def refuse(source, target):
            raise OSError("links not supported")

        if not links:
            monkeypatch.setattr(trainer.os, "link", refuse)
        config = oracle_free_config(epochs=3, seed=5)
        for scores in ([10.0, 50.0, 20.0], [30.0, 20.0, 10.0]):
            metrics = iter(scores)
            monkeypatch.setattr(trainer, "dev_metrics", lambda *args: dict.fromkeys(
                ("overall_f1", "struct_f1", "nuc_f1", "rel_f1"), next(metrics)))
            result = train(corpus, config, SMALL_MODEL, out_dir=str(tmp_path))
            best = tmp_path / "best.ckpt"
            epoch = tmp_path / f"epoch-{result.best_epoch}.ckpt"
            assert best.samefile(epoch) == links
            assert best.read_bytes() == epoch.read_bytes()
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "best.ckpt", "epoch-1.ckpt", "epoch-2.ckpt", "epoch-3.ckpt"
            ]
        assert result.best_epoch == 1

    @pytest.mark.parametrize("scores, best_epoch", [
        ([0.5, 0.9, 0.1], 2),
        ([0.1, 0.2, 0.3], 3),
    ])
    def test_result_params_are_the_best_epoch(
        self, corpus, tmp_path, monkeypatch, scores, best_epoch
    ):
        # A best epoch before the last is a snapshot, which later updates
        # leave alone; a best last epoch keeps the live arrays, uncopied.
        scores = iter(scores)
        live = []

        def scripted_metrics(*args):
            f1 = next(scores)
            return {"overall_f1": f1, "struct_f1": f1, "nuc_f1": f1, "rel_f1": f1}

        def recorded_init(*args):
            live.append(init_parameters(*args))
            return live[-1]

        monkeypatch.setattr(trainer, "dev_metrics", scripted_metrics)
        monkeypatch.setattr(trainer, "init_parameters", recorded_init)
        config = oracle_free_config(epochs=3, seed=5)
        result = train(corpus, config, SMALL_MODEL, out_dir=str(tmp_path))
        assert result.best_epoch == best_epoch
        assert (result.params is live[0]) == (best_epoch == config.epochs)
        saved, _, _ = load_checkpoint(tmp_path / f"epoch-{best_epoch}.ckpt")
        assert saved.keys() == result.params.keys()
        for key in saved:
            assert np.array_equal(saved[key], result.params[key])

    def test_dev_split_holds_out_documents(self, corpus):
        config = oracle_free_config(epochs=1, dev_size=2, seed=2)
        result = train(corpus, config, SMALL_MODEL)
        assert result.history[0]["dev_overall_f1"] >= 0.0
        with pytest.raises(ValueError, match="dev_size"):
            train(corpus, oracle_free_config(dev_size=len(corpus)), SMALL_MODEL)

    def test_gold_edu_training_runs(self, corpus):
        config = oracle_free_config(epochs=2, mode="goldedu")
        result = train(corpus, config, SMALL_MODEL)
        assert len(result.history) == 2
        assert "dev_rel_f1" in result.history[0]

    def test_divergence_reports_location(self, corpus, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("non-finite loss at step 3")

        monkeypatch.setattr(trainer, "loss_and_gradients", explode)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(corpus, oracle_free_config(epochs=1), SMALL_MODEL)

    @pytest.mark.parametrize("mode", ["end2end", "goldedu"])
    def test_each_document_encoded_once_per_epoch(self, corpus, monkeypatch, mode):
        # The rollout's encoding feeds the loss; dev decoding encodes the
        # dev documents once more, as one group.
        encoded = []
        original = model.encode

        def counting(params, ids, masks=None, **group):
            encoded.append(len(ids))
            return original(params, ids, masks, **group)

        monkeypatch.setattr(model, "encode", counting)
        monkeypatch.setattr(trainer, "encode", counting)
        config = oracle_free_config(epochs=2, dev_size=2, dropout=0.5, mode=mode)
        train(corpus, config, SMALL_MODEL)
        assert len(encoded) == config.epochs * (len(corpus) - config.dev_size + 1)
        tokens = sum(len(doc.tokens) for doc in corpus)
        assert sum(encoded) == config.epochs * tokens

    def test_no_document_outlives_its_update(self, corpus, monkeypatch):
        # Each rollout starts with the traced memory the first one started
        # with: the previous document's example and gradients (one parameter
        # set, which Adam used as its step buffers) are gone by then.
        config = ModelConfig(word_dim=8, hidden_dim=48, scorer_hidden=48)
        entries = []
        original = trainer.rollout

        def tracked(*args):
            entries.append(tracemalloc.get_traced_memory()[0])
            return original(*args)

        monkeypatch.setattr(trainer, "rollout", tracked)
        tracemalloc.start()
        try:
            result = train(corpus, oracle_free_config(epochs=1, dropout=0.5), config)
        finally:
            tracemalloc.stop()
        parameter_bytes = sum(array.nbytes for array in result.params.values())
        assert len(entries) == len(corpus)
        assert max(entries) - entries[0] < parameter_bytes / 4, (
            entries, parameter_bytes
        )

    def test_empty_treebank_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], oracle_free_config(), SMALL_MODEL)


def test_beta_sweep_harness(corpus):
    # The experiment grid from the paper's setup is runnable at desk scale:
    # one dev F1 per beta value.
    results = {}
    for beta in (0.6, 0.8, 1.0):
        config = TrainConfig(
            beta=beta, dropout=0.0, unk_replace=0.0, dev_size=0, epochs=1, seed=1
        )
        results[beta] = train(corpus, config, SMALL_MODEL).history[-1][
            "dev_overall_f1"
        ]
    assert set(results) == {0.6, 0.8, 1.0}
    assert all(isinstance(v, float) for v in results.values())
