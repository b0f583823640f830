"""Command-line surface for the whole pipeline.

Subcommands: ``convert`` (merge treebanks), ``generate`` (synthetic data),
``train``, ``parse``, ``eval``, and ``verify`` (the brute-force oracle and
finite-difference suites).  Exit codes: 0 on success, 1 for validation
failures (bad arguments, malformed inputs, failed verification), 2 for
unexpected runtime errors.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys

from . import convert, evaluate, serialize, synthetic, trainer, verify
from .model import ModelConfig, SpanScorer, load_checkpoint
from .transition import parse_documents
from .trees import InvariantError, validate_tree

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

VALIDATION_ERRORS = (ValueError, OSError)  # json.JSONDecodeError is a ValueError


class ValidationFailure(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; bad arguments are
    # validation failures here.
    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# run configuration


RUN_CONFIG_SCHEMA = {
    "data": {"limit"},
    "model": {f.name for f in dataclasses.fields(ModelConfig)},
    "train": {f.name for f in dataclasses.fields(trainer.TrainConfig)},
}


def load_run_config(path) -> dict:
    """Read and schema-check a run configuration; unknown keys are rejected."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValidationFailure("run config must be a JSON object")
    for section, content in raw.items():
        if section not in RUN_CONFIG_SCHEMA:
            raise ValidationFailure(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ValidationFailure(f"config section {section!r} must be an object")
        unknown = set(content) - RUN_CONFIG_SCHEMA[section]
        if unknown:
            raise ValidationFailure(
                f"unknown key(s) in config section {section!r}: {sorted(unknown)}"
            )
    run = {section: dict(raw.get(section, {})) for section in RUN_CONFIG_SCHEMA}
    limit = run["data"].get("limit")
    if limit is not None and (type(limit) is not int or limit < 1):
        raise ValidationFailure(f"data limit must be a positive integer, got {limit!r}")
    return run


# ---------------------------------------------------------------------------
# convert


def _ptb_files_by_stem(ptb_dir) -> dict:
    """Every file under `ptb_dir`, from one walk: stem -> sorted full paths."""
    by_stem = {}
    for root, _dirs, files in os.walk(ptb_dir):
        for name in files:
            by_stem.setdefault(name.split(".")[0], []).append(os.path.join(root, name))
    return {stem: sorted(paths) for stem, paths in by_stem.items()}


def cmd_convert(args) -> int:
    rst_files = []
    for root, _dirs, files in os.walk(args.rst):
        rst_files.extend(
            os.path.join(root, name) for name in files if name.endswith(".dis")
        )
    rst_files.sort()
    ptb_files = _ptb_files_by_stem(args.ptb)

    converted = []
    dropped = []
    diagnostics = []
    for rst_path in rst_files:
        stem = os.path.basename(rst_path).split(".")[0]
        ptb_matches = ptb_files.get(stem)
        if not ptb_matches:
            diagnostics.append(f"{rst_path}: no constituency file for {stem!r}")
            continue
        try:
            with open(rst_path, encoding="utf-8") as handle:
                rst_text = handle.read()
            with open(ptb_matches[0], encoding="utf-8") as handle:
                ptb_text = handle.read()
            converted.append(convert.convert_document(rst_text, ptb_text))
        except convert.AlignmentError as err:
            dropped.append((stem, str(err)))
        except VALIDATION_ERRORS as err:
            diagnostics.append(f"{rst_path}: {err}")

    serialize.write_treebank(converted, args.out)
    if args.dropped:
        with open(args.dropped, "w", encoding="utf-8") as handle:
            for stem, reason in dropped:
                handle.write(f"{stem}\t{reason}\n")
    stats = convert.corpus_stats(converted)
    print(json.dumps({"stats": stats.to_dict(), "dropped": len(dropped)}, indent=2))
    if diagnostics:
        for line in diagnostics:
            print(line, file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate / train


def cmd_generate(args) -> int:
    trees = synthetic.generate_treebank(
        args.seed, args.count, max_tokens=args.max_tokens, max_edus=args.max_edus
    )
    serialize.write_treebank(trees, args.out)
    stats = convert.corpus_stats(trees)
    print(json.dumps({"stats": stats.to_dict()}, indent=2))
    return EXIT_OK


def read_valid_treebank(path, limit=None) -> list:
    """A joint treebank, or its first `limit` documents, whose every tree
    passes `validate_tree`; the documents after those are neither parsed
    nor checked."""
    treebank = serialize.read_treebank(path, limit)
    for number, tree in enumerate(treebank, 1):
        try:
            validate_tree(tree)
        except InvariantError as err:
            raise ValidationFailure(f"{path}: document {number}: {err}") from err
    return treebank


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    treebank = read_valid_treebank(args.treebank, run["data"].get("limit"))
    model_config = ModelConfig(**run["model"])
    train_config = trainer.TrainConfig(**run["train"])

    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train.log")
    with open(log_path, "w", encoding="utf-8") as log_file:

        def log(line):
            print(line)
            log_file.write(line + "\n")
            log_file.flush()

        result = trainer.train(
            treebank, train_config, model_config, out_dir=args.out, log=log
        )
    print(
        json.dumps(
            {
                "best_epoch": result.best_epoch,
                "best_f1": result.best_f1,
                "checkpoint": os.path.join(args.out, "best.ckpt"),
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parse


def read_token_documents(path) -> list:
    """Documents of whitespace-separated tokens, separated by lines that are
    empty or hold only whitespace."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return [block.split() for _line, block in serialize.text_blocks(text)]


# The scorer of a `--jobs N` pool worker, one per worker process.  The
# sequential path of `cmd_parse` uses it too and clears it when the command
# ends, so that no model outlives its command.
_WORKER = {}


def _parse_worker_init(checkpoint):
    _WORKER.clear()  # drop any previous model before loading this one
    params, vocab, _config = load_checkpoint(checkpoint)
    _WORKER["scorer"] = SpanScorer(params, vocab)


def _parse_worker(task):
    index, words, edus = task
    [tree] = parse_documents(_WORKER["scorer"], [words], [edus])
    return index, serialize.write_joint(tree)


def cmd_parse(args) -> int:
    documents = read_token_documents(args.input)
    segmentations = None
    if args.gold_edus:
        segmentations = serialize.read_segmentation(args.gold_edus)
        if len(segmentations) != len(documents):
            raise ValidationFailure(
                f"{len(documents)} documents but {len(segmentations)} "
                "segmentation lines"
            )
        for words, spans in zip(documents, segmentations):
            if spans[-1].end != len(words):
                raise ValidationFailure(
                    "segmentation does not cover the document exactly"
                )
    tasks = [
        (i, words, segmentations[i] if segmentations else None)
        for i, words in enumerate(documents)
    ]
    if args.jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(args.jobs, len(tasks)),
            initializer=_parse_worker_init,
            initargs=(args.model,),
        ) as pool:
            rendered = [text for _i, text in sorted(pool.map(_parse_worker, tasks))]
    else:
        try:
            _parse_worker_init(args.model)
            trees = parse_documents(_WORKER["scorer"], documents, segmentations)
            rendered = [serialize.write_joint(tree) for tree in trees]
        finally:
            _WORKER.clear()
    for text in rendered:
        print(text)
        print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / verify


def cmd_eval(args) -> int:
    gold = read_valid_treebank(args.gold)
    # --pred stays unchecked: greedy output is not yet well-formed by
    # construction.
    pred = serialize.read_treebank(args.pred)
    report = evaluate.corpus_report(gold, pred)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    run_both = not (args.oracle or args.gradcheck)
    failed = False
    if args.oracle or run_both:
        report = verify.run_oracle_suite(
            num_states=args.states, progress=lambda msg: print(msg, file=sys.stderr)
        )
        print(
            f"oracle suite: {report.checked} states, "
            f"{len(report.failures)} violations"
        )
        for line in report.failures[:20]:
            print(f"  {line}")
        failed = failed or not report.ok
    if args.gradcheck or run_both:
        report = verify.run_gradcheck_suite(
            progress=lambda msg: print(msg, file=sys.stderr)
        )
        print(
            f"gradient check: {report.checked} coordinates, worst relative error "
            f"{report.details['worst_error']:.3e}, "
            f"{report.details['kink_skips']} kink-adjacent skipped, "
            f"{len(report.failures)} violations"
        )
        for line in report.failures[:20]:
            print(f"  {line}")
        failed = failed or not report.ok
    return EXIT_VALIDATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="jointparse")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="merge RST and PTB corpora")
    p.add_argument("--ptb", required=True, help="directory of constituency files")
    p.add_argument("--rst", required=True, help="directory of .dis discourse files")
    p.add_argument("--out", required=True, help="output joint treebank file")
    p.add_argument("--dropped", help="write dropped documents and reasons here")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("generate", help="emit a synthetic joint treebank")
    p.add_argument("--seed", required=True, help="generator seed")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-tokens", type=int, default=24)
    p.add_argument("--max-edus", type=int, default=5)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a parser on a joint treebank")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--treebank", required=True)
    p.add_argument("--out", required=True, help="run directory for checkpoints")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse tokenized documents")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="token file, one doc per block")
    p.add_argument("--gold-edus", help="segmentation file for gold-EDU decoding")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predictions against gold trees")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the oracle and gradient suites")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--gradcheck", action="store_true")
    p.add_argument("--states", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as err:  # noqa: BLE001 - runtime failures get exit code 2
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
