import gc
import json
import os
import weakref
import zipfile

import numpy as np
import pytest

from conftest import fixture_text

from jointparse import cli, serialize
from jointparse.model import load_checkpoint
from jointparse.synthetic import generate_treebank
from jointparse.trees import extract_edus


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_treebank_and_stats(self, tmp_path, capsys):
        out = tmp_path / "synth.joint"
        code, stdout, _ = run(
            capsys, "generate", "--seed", "g1", "--count", "5", "--out", str(out)
        )
        assert code == 0
        stats = json.loads(stdout)["stats"]
        assert stats["trees"] == 5
        assert len(serialize.read_treebank(out)) == 5

    def test_idempotent_for_same_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.joint", tmp_path / "b.joint"
        run(capsys, "generate", "--seed", "g2", "--count", "3", "--out", str(a))
        run(capsys, "generate", "--seed", "g2", "--count", "3", "--out", str(b))
        assert a.read_text() == b.read_text()


@pytest.fixture
def corpora(tmp_path):
    rst_dir = tmp_path / "rst"
    ptb_dir = tmp_path / "ptb"
    rst_dir.mkdir()
    ptb_dir.mkdir()
    (rst_dir / "doc1.dis").write_text(fixture_text("fig1.dis"))
    (ptb_dir / "doc1.mrg").write_text(fixture_text("fig1.mrg"))
    (rst_dir / "doc2.dis").write_text(fixture_text("fig2.dis"))
    (ptb_dir / "doc2.mrg").write_text(fixture_text("fig2.mrg"))
    return rst_dir, ptb_dir


class TestConvert:
    def test_converts_whole_directory(self, corpora, tmp_path, capsys):
        rst_dir, ptb_dir = corpora
        out = tmp_path / "joint.txt"
        code, stdout, _ = run(
            capsys, "convert", "--ptb", str(ptb_dir), "--rst", str(rst_dir),
            "--out", str(out),
        )
        assert code == 0
        stats = json.loads(stdout)["stats"]
        assert stats["trees"] == 2
        trees = serialize.read_treebank(out)
        assert {serialize.write_joint(t) for t in trees} == {
            fixture_text("fig1_expected.joint").strip(),
            fixture_text("fig2_expected.joint").strip(),
        }

    def test_empty_directories_give_empty_output(self, tmp_path, capsys):
        (tmp_path / "rst").mkdir()
        (tmp_path / "ptb").mkdir()
        out = tmp_path / "joint.txt"
        code, stdout, _ = run(
            capsys, "convert", "--ptb", str(tmp_path / "ptb"),
            "--rst", str(tmp_path / "rst"), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["stats"]["trees"] == 0
        assert serialize.read_treebank(out) == []

    def test_misaligned_document_dropped_others_converted(
        self, corpora, tmp_path, capsys
    ):
        rst_dir, ptb_dir = corpora
        bad = fixture_text("fig1.dis").replace("Costa Rica", "Costa Banana")
        (rst_dir / "doc3.dis").write_text(bad)
        (ptb_dir / "doc3.mrg").write_text(fixture_text("fig1.mrg"))
        out = tmp_path / "joint.txt"
        dropped = tmp_path / "dropped.txt"
        code, stdout, _ = run(
            capsys, "convert", "--ptb", str(ptb_dir), "--rst", str(rst_dir),
            "--out", str(out), "--dropped", str(dropped),
        )
        assert code == 0
        assert json.loads(stdout)["stats"]["trees"] == 2
        assert json.loads(stdout)["dropped"] == 1
        assert "doc3" in dropped.read_text()

    def test_first_sorted_path_of_a_stem_is_converted(
        self, corpora, tmp_path, capsys
    ):
        # Three files share the stem doc1; the walk meets the top-level one
        # first, but the first sorted full path is ptb/a/doc1.mrg.
        rst_dir, ptb_dir = corpora
        for sub in ("a", "z"):
            (ptb_dir / sub).mkdir()
        (ptb_dir / "a" / "doc1.mrg").write_text(fixture_text("fig1.mrg"))
        (ptb_dir / "doc1.mrg").write_text("(S (X a))")
        (ptb_dir / "z" / "doc1.mrg").write_text("(S (X a))")
        out = tmp_path / "joint.txt"
        code, stdout, stderr = run(
            capsys, "convert", "--ptb", str(ptb_dir), "--rst", str(rst_dir),
            "--out", str(out),
        )
        assert (code, stderr) == (0, "")
        assert json.loads(stdout)["dropped"] == 0
        trees = serialize.read_treebank(out)
        assert {serialize.write_joint(t) for t in trees} == {
            fixture_text("fig1_expected.joint").strip(),
            fixture_text("fig2_expected.joint").strip(),
        }

    def test_unreadable_document_fails_with_diagnostics(
        self, corpora, tmp_path, capsys
    ):
        rst_dir, ptb_dir = corpora
        (rst_dir / "doc3.dis").write_text("( Root (span 1 2")
        (ptb_dir / "doc3.mrg").write_text("(S (X a))")
        code, _stdout, stderr = run(
            capsys, "convert", "--ptb", str(ptb_dir), "--rst", str(rst_dir),
            "--out", str(tmp_path / "joint.txt"),
        )
        assert code == 1
        assert "doc3" in stderr


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the parse pool with one that runs its tasks in this process,
    recording each pool's size and the list of tasks it maps."""
    record = {"sizes": [], "tasks": []}

    class InlinePool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            record["tasks"].append(list(tasks))
            return map(fn, record["tasks"][-1])

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return record


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A tiny end-to-end training run shared by the parse/eval tests."""
    base = tmp_path_factory.mktemp("run")
    treebank = base / "train.joint"
    serialize.write_treebank(
        generate_treebank("cli-train", 6, max_tokens=10, max_edus=3), treebank
    )
    config = base / "run.json"
    config.write_text(json.dumps({
        "model": {"word_dim": 8, "hidden_dim": 8, "scorer_hidden": 12},
        "train": {"beta": 1.0, "dropout": 0.0, "unk_replace": 0.0,
                  "dev_size": 0, "epochs": 2, "seed": 1,
                  "learning_rate": 0.005},
    }))
    out = base / "out"
    code = cli.main([
        "train", "--config", str(config), "--treebank", str(treebank),
        "--out", str(out),
    ])
    assert code == 0
    return base, treebank, out


class TestTrain:
    def test_run_artifacts(self, run_dir):
        _base, _treebank, out = run_dir
        assert (out / "best.ckpt").exists()
        assert (out / "epoch-1.ckpt").exists()
        log = (out / "train.log").read_text().splitlines()
        assert len(log) == 2
        assert "loss" in log[0] and "rel" in log[0]

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"train": {"beta": 1.0, "typo_key": 2}}))
        code, _out, stderr = run(
            capsys, "train", "--config", str(config),
            "--treebank", "nowhere.joint", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "typo_key" in stderr

    def test_unknown_section_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"wat": {}}))
        code, _out, stderr = run(
            capsys, "train", "--config", str(config),
            "--treebank", "nowhere.joint", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "wat" in stderr


    @pytest.mark.parametrize("section, key, value", [
        ("train", "epochs", 0),
        ("train", "epochs", "2"),
        ("train", "dropout", 1.0),
        ("data", "limit", "2"),
        ("train", "beta", "0.5"),
        ("train", "dev_size", "1"),
        ("train", "learning_rate", "x"),
        ("model", "word_dim", "4"),
        ("train", "seed", 1.5),
        ("model", "word_dim", 0),
        ("train", "learning_rate", -1),
        ("train", "dev_size", -1),
        ("train", "clip_norm", float("inf")),
    ])
    def test_bad_run_config_values_rejected(
        self, run_dir, tmp_path, capsys, section, key, value
    ):
        _base, treebank, _out = run_dir
        run_config = {
            "model": {"word_dim": 4, "hidden_dim": 4, "scorer_hidden": 4},
            "train": {"epochs": 1, "dev_size": 0},
            "data": {},
        }
        run_config[section][key] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config))
        code, stdout, stderr = run(
            capsys, "train", "--config", str(config),
            "--treebank", str(treebank), "--out", str(tmp_path / "o"),
        )
        assert code == 1, stderr
        assert key in stderr and not stdout


class TestInputValidation:
    # An RST file reads as one bracketed document, but its tree breaks the
    # joint-tree invariants.
    def test_train_rejects_ill_formed_treebank(self, tmp_path, capsys):
        treebank = tmp_path / "fig1.dis"
        treebank.write_text(fixture_text("fig1.dis"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": {"word_dim": 4, "hidden_dim": 4, "scorer_hidden": 4},
            "train": {"epochs": 1, "dev_size": 0},
        }))
        out = tmp_path / "out"
        code, _out, stderr = run(
            capsys, "train", "--config", str(config),
            "--treebank", str(treebank), "--out", str(out),
        )
        assert code == 1
        assert "document 1" in stderr and "multi-nuclear" in stderr
        assert not (out / "best.ckpt").exists()

    @staticmethod
    def train(capsys, tmp_path, treebank, limit, out):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "data": {} if limit is None else {"limit": limit},
            "model": {"word_dim": 4, "hidden_dim": 4, "scorer_hidden": 4},
            "train": {"epochs": 1, "dev_size": 1},
        }))
        return run(
            capsys, "train", "--config", str(config),
            "--treebank", str(treebank), "--out", str(tmp_path / out),
        )

    def test_train_reads_only_the_limit_prefix(self, tmp_path, capsys):
        # A malformed block after the `data.limit` prefix is never read, and
        # the run equals one on a file that holds only the prefix.
        trees = generate_treebank("cli-limit", 5, max_tokens=10, max_edus=3)
        blocks = [serialize.write_joint(tree) for tree in trees]
        prefix, damaged = tmp_path / "prefix.joint", tmp_path / "damaged.joint"
        prefix.write_text("\n\n".join(blocks[:4]) + "\n")
        damaged.write_text("\n\n".join([*blocks[:4], "(S (NP x)", blocks[4]]) + "\n")
        for treebank in (prefix, damaged):
            code, _out, stderr = self.train(
                capsys, tmp_path, treebank, 4, treebank.stem
            )
            assert code == 0, stderr
        with np.load(tmp_path / "prefix" / "best.ckpt") as first, \
                np.load(tmp_path / "damaged" / "best.ckpt") as second:
            assert first.files == second.files
            for key in first.files:
                assert np.array_equal(first[key], second[key]), key

    def test_train_limit_keeps_prefix_errors(self, tmp_path, capsys):
        good = [
            serialize.write_joint(tree)
            for tree in generate_treebank("cli-limit", 2, max_tokens=10, max_edus=3)
        ]
        treebank = tmp_path / "bad.joint"
        treebank.write_text(f"{good[0]}\n\n{good[1]}\n\n(S (NP x)\n\n{good[0]}\n")
        errors = []
        for limit in (None, 3, 4):
            code, stdout, stderr = self.train(capsys, tmp_path, treebank, limit, "o")
            assert code == 1 and not stdout
            errors.append(stderr)
        assert errors[0] == "error: document 3 (line 5): unbalanced '('\n"
        assert errors == [errors[0]] * 3

    def test_eval_rejects_ill_formed_gold(self, tmp_path, capsys):
        gold = tmp_path / "fig1.dis"
        gold.write_text(fixture_text("fig1.dis"))
        code, stdout, stderr = run(
            capsys, "eval", "--gold", str(gold), "--pred", str(gold)
        )
        assert code == 1 and not stdout
        assert "document 1" in stderr and "multi-nuclear" in stderr


class TestParseAndEval:
    def test_parse_eval_round_trip(self, run_dir, tmp_path, capsys):
        base, treebank, out = run_dir
        trees = serialize.read_treebank(treebank)
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text(
            "\n\n".join(" ".join(t.text for t in tree.tokens) for tree in trees)
        )
        code, stdout, _ = run(
            capsys, "parse", "--model", str(out / "best.ckpt"),
            "--input", str(tokens_file),
        )
        assert code == 0
        pred_path = tmp_path / "pred.joint"
        pred_path.write_text(stdout)
        preds = serialize.read_treebank(pred_path)
        assert len(preds) == len(trees)

        code, stdout, _ = run(
            capsys, "eval", "--gold", str(treebank), "--pred", str(pred_path)
        )
        assert code == 0
        report = json.loads(stdout)
        assert len(report["documents"]) == len(trees)
        assert 0.0 <= report["corpus"]["overall_f1"] <= 100.0

    def test_eval_gold_vs_gold_is_all_hundred(self, run_dir, capsys):
        _base, treebank, _out = run_dir
        code, stdout, _ = run(
            capsys, "eval", "--gold", str(treebank), "--pred", str(treebank)
        )
        assert code == 0
        corpus = json.loads(stdout)["corpus"]
        assert all(value == 100.0 for value in corpus.values())

    def test_gold_edu_parse(self, run_dir, tmp_path, capsys):
        base, treebank, out = run_dir
        trees = serialize.read_treebank(treebank)
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text(
            "\n\n".join(" ".join(t.text for t in tree.tokens) for tree in trees)
        )
        edus_file = tmp_path / "edus.txt"
        serialize.write_segmentation([extract_edus(t) for t in trees], edus_file)
        code, stdout, _ = run(
            capsys, "parse", "--model", str(out / "best.ckpt"),
            "--input", str(tokens_file), "--gold-edus", str(edus_file),
        )
        assert code == 0
        preds = serialize.read_treebank_text(stdout)
        for gold, pred in zip(trees, preds):
            assert extract_edus(pred) == extract_edus(gold)

    def test_jobs_flag_is_deterministic(self, run_dir, tmp_path, capsys, monkeypatch):
        # Whatever groups the documents are encoded in, end to end and with
        # gold EDUs: one command over the file, the pool's two workers (every
        # second document each), several groups, and one command per document.
        from jointparse import transition

        base, treebank, out = run_dir
        trees = serialize.read_treebank(treebank)
        assert len({len(tree.tokens) for tree in trees}) > 1  # groups reorder

        def parse(name, docs, gold_edus, *extra):
            tokens_file = tmp_path / f"{name}.txt"
            tokens_file.write_text(
                "\n\n".join(" ".join(t.text for t in tree.tokens) for tree in docs)
            )
            argv = ["parse", "--model", str(out / "best.ckpt"),
                    "--input", str(tokens_file), *extra]
            if gold_edus:
                edus_file = tmp_path / f"{name}.edus"
                serialize.write_segmentation([extract_edus(t) for t in docs], edus_file)
                argv += ["--gold-edus", str(edus_file)]
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            return stdout

        for gold_edus in (False, True):
            serial_out = parse("all", trees, gold_edus, "--jobs", "1")
            assert parse("all", trees, gold_edus, "--jobs", "2") == serial_out
            assert "".join(
                parse(f"doc{k}", [tree], gold_edus) for k, tree in enumerate(trees)
            ) == serial_out
            with monkeypatch.context() as patch:
                patch.setattr(transition, "GROUP_TOKENS", 12)
                assert parse("all", trees, gold_edus) == serial_out

    def test_jobs_shards_documents_round_robin(
        self, run_dir, tmp_path, capsys, inline_pool
    ):
        # `--jobs 3` on 5 documents: 3 shards, shard k holding documents
        # k, k + 3, ..., parsed through the batched path of `--jobs 1`.
        _base, _treebank, out = run_dir
        by_length = {}
        for tree in generate_treebank("cli-shards", 40, max_tokens=12, max_edus=3):
            by_length.setdefault(len(tree.tokens), tree)
        trees = list(by_length.values())[:5]
        assert len({len(tree.tokens) for tree in trees}) == 5
        words = [[t.text for t in tree.tokens] for tree in trees]
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("\n\n".join(" ".join(doc) for doc in words))
        edus = [extract_edus(tree) for tree in trees]
        edus_file = tmp_path / "edus.txt"
        serialize.write_segmentation(edus, edus_file)

        for extra, segmentations in (([], None), (["--gold-edus", str(edus_file)], edus)):
            argv = ["parse", "--model", str(out / "best.ckpt"),
                    "--input", str(tokens_file), *extra]
            inline_pool["sizes"].clear()
            inline_pool["tasks"].clear()
            code, serial_out, _ = run(capsys, *argv, "--jobs", "1")
            assert code == 0 and inline_pool["tasks"] == []
            code, sharded_out, _ = run(capsys, *argv, "--jobs", "3")
            assert code == 0 and sharded_out == serial_out
            [tasks] = inline_pool["tasks"]
            assert inline_pool["sizes"] == [3] and len(tasks) == 3
            # Each document in exactly one shard, in input order within it.
            assert [task[1] for task in tasks] == [words[k::3] for k in range(3)]
            for k, (checkpoint, _docs, shard_edus) in enumerate(tasks):
                assert checkpoint == str(out / "best.ckpt")
                assert shard_edus == (segmentations and segmentations[k::3])

    def test_pool_has_at_most_one_worker_per_document(
        self, run_dir, tmp_path, capsys, inline_pool
    ):
        _base, _treebank, out = run_dir
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("a b c\n\nd e\n")
        code, stdout, _err = run(
            capsys, "parse", "--model", str(out / "best.ckpt"),
            "--input", str(tokens_file), "--jobs", "4",
        )
        assert code == 0 and inline_pool["sizes"] == [2]
        assert len(serialize.read_treebank_text(stdout)) == 2

    def test_whitespace_only_line_separates_documents(self, run_dir, tmp_path, capsys):
        _base, _treebank, out = run_dir
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("the cat sat\n \ndogs bark\n\t\nloudly\n")
        code, stdout, _ = run(
            capsys, "parse", "--model", str(out / "best.ckpt"),
            "--input", str(tokens_file),
        )
        assert code == 0
        preds = serialize.read_treebank_text(stdout)
        assert [[t.text for t in tree.tokens] for tree in preds] == [
            ["the", "cat", "sat"], ["dogs", "bark"], ["loudly"]
        ]

    def test_parse_frees_its_model(self, run_dir, tmp_path, capsys, monkeypatch):
        _base, _treebank, out = run_dir
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("a b c\n\nd e\n")
        loaded = []

        def load(path):
            params, vocab, config = load_checkpoint(path)
            loaded.append(weakref.ref(params["embed"]))
            return params, vocab, config

        monkeypatch.setattr(cli, "load_checkpoint", load)
        code, _out, _err = run(
            capsys, "parse", "--model", str(out / "best.ckpt"),
            "--input", str(tokens_file),
        )
        gc.collect()
        assert code == 0 and len(loaded) == 1
        assert loaded[0]() is None

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, run_dir, tmp_path, capsys, jobs):
        _base, _treebank, out = run_dir
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("a b c\n")
        with pytest.raises(SystemExit) as info:
            cli.main(["parse", "--model", str(out / "best.ckpt"),
                      "--input", str(tokens_file), "--jobs", jobs])
        assert info.value.code == 1
        stderr = capsys.readouterr().err
        assert "--jobs" in stderr and "at least 1" in stderr

    def test_segmentation_count_mismatch_rejected(self, run_dir, tmp_path, capsys):
        base, treebank, out = run_dir
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("a b c")
        edus_file = tmp_path / "edus.txt"
        edus_file.write_text("0:2 2:3\n0:1\n")
        code, _out, stderr = run(
            capsys, "parse", "--model", str(out / "best.ckpt"),
            "--input", str(tokens_file), "--gold-edus", str(edus_file),
        )
        assert code == 1
        assert "segmentation" in stderr

    @pytest.mark.parametrize("damage", ["flipped-bit", "cut", "plain-npy", "text"])
    def test_damaged_or_foreign_model_rejected(self, run_dir, tmp_path, capsys,
                                               damage):
        # A validation failure (exit 1) whose message names the file, and
        # the member whose bytes no longer match its CRC-32.
        _base, _treebank, out = run_dir
        original = (out / "best.ckpt").read_bytes()
        model = tmp_path / "model.ckpt"
        if damage == "flipped-bit":
            with zipfile.ZipFile(out / "best.ckpt") as archive:
                infos = archive.infolist()
            k = [info.filename for info in infos].index("lstm1f.Wh.npy")
            data = bytearray(original)
            # The middle of the member, well past its 128-byte .npy header.
            data[infos[k + 1].header_offset - infos[k].file_size // 2] ^= 0x10
            model.write_bytes(data)
        elif damage == "cut":
            model.write_bytes(original[: len(original) // 2])
        elif damage == "plain-npy":
            with open(model, "wb") as handle:
                np.save(handle, np.zeros(3))
        else:
            model.write_text("not a model\n")
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("a b c\n")
        code, stdout, stderr = run(
            capsys, "parse", "--model", str(model), "--input", str(tokens_file)
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: {model}: ")
        if damage == "flipped-bit":
            assert "member lstm1f.Wh: Bad CRC-32" in stderr
        else:
            assert "not a zip file" in stderr


class TestVerifyCommand:
    def test_oracle_flag(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--oracle", "--states", "120")
        assert code == 0
        assert "0 violations" in stdout

    def test_gradcheck_flag(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--gradcheck")
        assert code == 0
        assert "worst relative error" in stdout


class TestExitCodes:
    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--states", "0"], "--states"),
        (["verify", "--states", "-3"], "--states"),
        (["generate", "--seed", "g", "--count", "-2", "--out", "x.joint"], "--count"),
        (["generate", "--seed", "g", "--count", "2", "--out", "x.joint",
          "--bucket", "5"], "--bucket"),
    ])
    def test_bad_integer_arguments_rejected(
        self, tmp_path, monkeypatch, capsys, argv, flag
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.joint").exists()

    def test_missing_file_is_validation_failure(self, capsys):
        code, _out, stderr = run(
            capsys, "eval", "--gold", "missing.joint", "--pred", "missing.joint"
        )
        assert code == 1
        assert "missing.joint" in stderr

    def test_usage_error_is_validation_failure(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["parse", "--model"])
        assert info.value.code == 1

    def test_unknown_command_is_validation_failure(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 1


def test_fig1_tokens_parse_to_exact_tree(tmp_path, capsys, fig1_expected):
    """An overfit model must reproduce the first figure's tree verbatim."""
    from jointparse import convert, trainer
    from jointparse.model import ModelConfig, save_checkpoint

    tree = convert.convert_document(
        fixture_text("fig1.dis"), fixture_text("fig1.mrg")
    )
    config = trainer.TrainConfig(
        beta=1.0, dropout=0.0, unk_replace=0.0, dev_size=0,
        epochs=45, seed=1, learning_rate=8e-3,
    )
    result = trainer.train(
        [tree], config, ModelConfig(word_dim=24, hidden_dim=24, scorer_hidden=48)
    )
    assert result.best_f1 == 100.0
    ckpt = tmp_path / "fig1.ckpt"
    save_checkpoint(ckpt, result.params, result.vocab, result.model_config)

    tokens_file = tmp_path / "tokens.txt"
    tokens_file.write_text(" ".join(t.text for t in tree.tokens) + "\n")
    code, stdout, _ = run(
        capsys, "parse", "--model", str(ckpt), "--input", str(tokens_file)
    )
    assert code == 0
    assert stdout.strip() == fig1_expected
