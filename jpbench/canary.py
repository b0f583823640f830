"""Reference outputs that tie every benchmark run to the program's results.

The per-seed output checks in `workloads` hold for any tree shape and any
finite loss, so a change that alters greedy decoding or the training loss
would still pass them.  Every run therefore also trains and parses one
fixed small corpus, the same for every benchmark seed, through
`jointparse.cli.main`, and compares the results with `reference.json`:

* ``parse`` and ``parse --gold-edus`` with a fixed untrained default-dims
  checkpoint: the SHA-256 of each output, and how many of its trees fail
  `validate_tree` (greedy decoding does not enforce every joint-tree
  invariant, so some do; a change that breaks more of them shows here);
* ``train`` at small dims: the epoch losses, equal to the recorded ones
  within the precision of the training log.

Rewrite the reference only for a change that is meant to change the
program's outputs:

    python3 jpbench/canary.py

run from the repository root, prints the new reference and writes it.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import contextlib  # noqa: E402 - after the source path above
import gc
import hashlib
import json
import math
import re
import shutil

import inputs
from jointparse import cli
from jointparse.serialize import read_treebank, write_segmentation, write_treebank
from jointparse.trees import extract_edus, validate_tree

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DEFAULT_DIMS = (50, 200, 200)
TRAIN_DIMS = (16, 24, 32)
# The training log prints each epoch loss with three decimals.
LOSS_TOLERANCE = 2e-3


def _cli(argv, stdout_path):
    gc.collect()
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        return cli.main(argv)


def _ill_formed(path):
    count = 0
    for tree in read_treebank(path):
        try:
            validate_tree(tree)
        except ValueError:
            count += 1
    return count


def outputs(workdir):
    """Train and parse the fixed corpus in `workdir`; the results to
    compare with the reference."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def path(name):
        return os.path.join(workdir, name)

    corpus = inputs.pinned_corpus("canary", 8, (1, 60), 8)
    write_treebank(corpus, path("gold.joint"))
    inputs.write_tokens(corpus, path("tokens.txt"))
    write_segmentation([extract_edus(tree) for tree in corpus], path("edus.txt"))
    inputs.write_seeded_checkpoint(corpus, DEFAULT_DIMS, 0, path("seeded.ckpt"))
    result = {}
    for mode, extra in (("end2end", []), ("gold_edus", ["--gold-edus", path("edus.txt")])):
        pred = path(f"{mode}.joint")
        code = _cli(["parse", "--model", path("seeded.ckpt"), "--input", path("tokens.txt"),
                     "--jobs", "1"] + extra, pred)
        with open(pred, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        result[f"parse_{mode}"] = {"exit": code, "sha256": digest,
                                   "ill_formed": _ill_formed(pred) if code == 0 else None}

    config = {
        "model": dict(zip(("word_dim", "hidden_dim", "scorer_hidden"), TRAIN_DIMS)),
        "train": {"epochs": 2, "dev_size": 2, "seed": 1, "mode": "end2end"},
        "data": {},
    }
    with open(path("run.json"), "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    code = _cli(["train", "--config", path("run.json"), "--treebank", path("gold.joint"),
                 "--out", path("train")], path("train.out"))
    losses = None
    if code == 0:
        with open(os.path.join(workdir, "train", "train.log"), encoding="utf-8") as handle:
            losses = [float(m.group(1)) for m in
                      re.finditer(r"^epoch \d+: loss (\S+)", handle.read(), re.M)]
    result["train"] = {"exit": code, "losses": losses}
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def compare(got, want):
    """(ok, description) for each reference output."""
    checks = []
    for key in ("parse_end2end", "parse_gold_edus"):
        ok = got[key] == want[key]
        checks.append((ok, f"reference {key}: got {got[key]}, recorded {want[key]}"))
    losses, recorded = got["train"]["losses"], want["train"]["losses"]
    ok = (got["train"]["exit"] == 0 and losses is not None
          and len(losses) == len(recorded)
          and all(math.isfinite(a) and abs(a - b) <= LOSS_TOLERANCE
                  for a, b in zip(losses, recorded)))
    checks.append((ok, f"reference train losses: got {losses}, recorded {recorded}"))
    return checks


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = outputs(os.path.join(root, ".jpbench-work", f"canary-{os.getpid()}"))
    text = json.dumps(result, indent=1, sort_keys=True)
    print(text)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
