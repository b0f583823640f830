from conftest import state_after
from jointparse.model import LabelStep
from jointparse.transition import axiom, unit_gold_map
from jointparse.verify import (
    CompletionSearch,
    finite_difference_check,
    relative_error,
    run_gradcheck_suite,
    run_oracle_suite,
    sample_states,
)
from jointparse.synthetic import generate_synthetic


def test_relative_error_scaling():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(0.0, 1e-5) == 1e-5
    assert relative_error(200.0, 202.0) == 2.0 / 202.0


def test_completion_search_hand_case():
    # gold brackets: (0,2) and the root (0,3)
    gold = {(0, 2): "A", (0, 3): "S"}
    search = CompletionSearch(gold, ["A", "S"])
    assert search.best_future(axiom(3)) == 2
    # after shifting all three tokens individually, (0,2) is dead
    state = state_after(3, "SH NL SH NL SH NL")
    assert search.best_future(state) == 1


def test_completion_search_label_actions():
    gold = {(0, 2): "A", (0, 3): "S"}
    search = CompletionSearch(gold, ["A", "B", "S"])
    state = state_after(3, "SH NL SH NL CB")  # labeling (0, 2)
    assert {a.mnemonic() for a in search.best_actions(state)} == {"L:A"}
    off_gold = state_after(3, "SH NL SH")  # labeling (1, 2)
    assert {a.mnemonic() for a in search.best_actions(off_gold)} == {"NL"}


def test_sample_states_covers_off_gold_paths():
    import random

    tree = generate_synthetic("sample/1", max_tokens=6)
    states, gold_map, chains = sample_states(tree, random.Random(0), walks=6)
    assert states
    assert "ZZZ" in chains
    assert gold_map == unit_gold_map(tree)


def test_oracle_suite_small():
    report = run_oracle_suite(num_states=150, max_tokens=5, seed=99)
    assert report.ok
    assert report.checked == 150


def test_gradcheck_suite_small():
    report = run_gradcheck_suite(n_docs=2, coords_per_array=3, seed=11)
    assert report.ok
    assert report.details["worst_error"] <= 1e-4


def test_gradcheck_with_dropout_masks():
    # Recurrent-output masks and per-step scorer-hidden masks both on.
    from jointparse.verify import _oracle_examples

    params, examples = _oracle_examples(2, seed=13, dropout=0.5)
    for doc_index, example in enumerate(examples):
        assert example.enc.masks is not None
        assert all(
            step.hmask is not None
            if isinstance(step, LabelStep)
            else step.hmask_shift is not None and step.hmask_combine is not None
            for step in example.steps
        )
        worst, rows, _skipped = finite_difference_check(
            params, example.enc.ids, example.steps, coords_per_array=4,
            seed=doc_index, masks=example.enc.masks,
        )
        assert rows
        assert worst <= 1e-4


def test_gradcheck_suite_covers_a_dropout_document(monkeypatch):
    # Two documents without dropout, then one rolled out at dropout 0.5,
    # whose bool masks the check runs through.
    import jointparse.verify as verify_module

    seen = []
    original = verify_module.finite_difference_check

    def recording(params, ids, steps, **kwargs):
        seen.append((kwargs.get("masks"), steps))
        return original(params, ids, steps, **kwargs)

    monkeypatch.setattr(verify_module, "finite_difference_check", recording)
    report = run_gradcheck_suite(n_docs=2, coords_per_array=2, seed=11)
    assert report.ok
    assert [masks is None for masks, _ in seen] == [True, True, False]
    masks, steps = seen[-1]
    assert masks.layer1.dtype == bool and masks.features.dtype == bool
    assert all(
        mask.dtype == bool
        for step in steps
        for mask in (
            (step.hmask,) if isinstance(step, LabelStep)
            else (step.hmask_shift, step.hmask_combine)
        )
    )


def test_finite_difference_flags_wrong_gradient(monkeypatch):
    # A deliberately biased analytic gradient must not slip past the check.
    import jointparse.verify as verify_module
    from jointparse.verify import _oracle_examples

    params, examples = _oracle_examples(1, seed=3)
    example = examples[0]
    original = verify_module.loss_and_gradients

    def corrupted(params_, enc, steps):
        loss, grads = original(params_, enc, steps)
        return loss, {k: v + 0.01 for k, v in grads.items()}

    monkeypatch.setattr(verify_module, "loss_and_gradients", corrupted)
    worst, rows, _skipped = finite_difference_check(
        params, example.enc.ids, example.steps, coords_per_array=2, seed=1
    )
    assert worst > 1e-4  # the checker sees through a broken gradient
    assert any(err > 1e-4 for *_rest, err in rows)


def test_reachable_count_matches_search_on_axiom():
    tree = generate_synthetic("axiom/1", max_tokens=6)
    gold_map = unit_gold_map(tree)
    search = CompletionSearch(gold_map, sorted(set(gold_map.values())))
    from jointparse.transition import reachable_count

    state = axiom(len(tree.tokens))
    assert reachable_count(state, gold_map) == search.best_future(state)
    assert reachable_count(state, gold_map) == len(gold_map)
