"""The four benchmark workloads and their metrics.

Each workload is an offline batch job: a closed loop with one client, run in
this process through `jointparse.cli.main` exactly as a user runs the
commands; the only other processes are the parse workers that
``parse --jobs N`` starts itself.  A run repeats the steps of its workload
for a share of ``--seconds`` each and reports each step's total work over
its total time (see `Run.measure`):

1. ``convert``: the rendered .dis/.mrg sources become a joint treebank;
2. set-up: what every later command pays before working, ``read_treebank``
   of that treebank (train workloads) or ``load_checkpoint`` (parse ones);
3. the main command, whose input tokens per second is ``tokens_per_s``:
   ``train`` (train workloads; training tokens x epochs over the whole
   command) or ``parse --jobs 1``; the train workloads parse their
   held-out documents once with the trained checkpoint.  The parse
   workloads parse their documents in chunks of two, a short one with a
   long one, one ``parse`` command per chunk, and report the upper quartile
   of the commands' throughputs (see `Run.measure`);
4. ``eval`` of the parse output against the generated gold trees.

Only ``tokens_per_s``, ``setup_s`` and ``peak_rss_mb`` carry bounds.  On a
shared two-CPU virtual machine the pure-Python steps (convert, eval) ran up
to twice as fast in one run as in another, much more than the main
commands varied; so convert and eval throughput are reported without a
bound, among the per-layer metrics of traced runs.  Traced runs also add
``parse --jobs N``, N being the CPUs this process may use: each parse
worker's OpenBLAS starts one thread per CPU, and the oversubscribed runs
swing by a factor of three from one repetition to the next.

Every step's output is checked; a non-zero exit, an exception, a dropped or
wrong document counts as a failed operation.  With ``--trace 1`` the run
measures the steps untraced for half the time, then makes one traced pass
of each step and reports per-layer numbers from its spans.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import canary
import inputs
import tracing
from jointparse import cli
from jointparse.convert import corpus_stats
from jointparse.model import load_checkpoint
# Bound here, before any tracing starts, so that the benchmark's own checks
# and set-up timings never show up in the program's spans.
from jointparse.serialize import (
    read_treebank,
    write_joint,
    write_segmentation,
    write_treebank,
)
from jointparse.trees import extract_edus, leaf_tokens, validate_tree

DEFAULT_DIMS = (50, 200, 200)
SMALL_DIMS = (48, 64, 128)  # the dims of the learnability acceptance criterion


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lengths: tuple          # (fewest, most) tokens per document
    max_edus: int
    corpus_docs: int        # documents rendered as sources and converted
    dims: tuple             # (word_dim, hidden_dim, scorer_hidden)
    parse_docs: int         # documents parsed and evaluated
    train_docs: int = 0     # data.limit prefix given to `train`; 0: parse workload
    dev_size: int = 0
    epochs: int = 0
    gold_edus: bool = False

    @property
    def trains(self):
        return self.train_docs > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-short",
            why="learnability regime: heads, backward, Adam and dev decoding "
            "dominate; the only workload whose convert volume is large",
            lengths=(1, 40),
            max_edus=6,
            corpus_docs=240,
            dims=SMALL_DIMS,
            parse_docs=40,
            train_docs=32,
            dev_size=6,
            epochs=2,
        ),
        Workload(
            name="train-long",
            why="discourse-treebank regime: LSTM forward/backward and the "
            "quadratic dynamic oracle dominate training",
            lengths=(150, 500),
            max_edus=30,
            corpus_docs=16,
            dims=DEFAULT_DIMS,
            parse_docs=1,
            # One training document of about 370 tokens and a dev document
            # of 150: a train command takes seconds, so several fit in a run
            # and its throughput averages over the machine's speed swings.
            train_docs=2,
            dev_size=1,
            epochs=1,
        ),
        Workload(
            name="parse",
            why="inference only: per-step heads and the encoder dominate; "
            "no backward pass, oracle or Adam",
            lengths=(1, 400),
            max_edus=30,
            corpus_docs=10,
            dims=DEFAULT_DIMS,
            parse_docs=10,
        ),
        Workload(
            name="parse-goldedu",
            why="the same documents with gold EDUs: the encoder dominates and "
            "the heads are the bypass side of any head optimisation",
            lengths=(1, 400),
            max_edus=30,
            corpus_docs=10,
            dims=DEFAULT_DIMS,
            parse_docs=10,
            gold_edus=True,
        ),
    )
}

# End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "tokens_per_s": "tokens/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Step throughputs too unsteady to bound (see the module docstring); the
# traced runs report them among the per-layer metrics.
UNBOUNDED = {
    "convert_docs_per_s": "docs/s",
    "eval_docs_per_s": "docs/s",
    "parse_jobsN_tokens_per_s": "tokens/s",
}
STEP_UNITS = dict(END_TO_END, **UNBOUNDED)
# Share of --seconds for each repeated step; convert and eval repeat, and
# "jobs" runs, in traced runs only.
SHARES = {"convert": 0.1, "setup": 0.1, "main": 0.6, "jobs": 0.2, "eval": 0.1}
# read_treebank / load_checkpoint calls timed back to back in one set-up sample
SETUP_CALLS = 5

# Units of the per-layer fields of `tracing.TARGETS`.
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "p50_ms": "ms", "tail_ms": "ms"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in tracing.TARGETS:
        units.update((f"{target.name}.{field}", FIELD_UNITS[field]) for field in target.fields)
        if target.work:
            units[f"{target.name}.{target.work[0]}"] = target.work[0]
    units["model.encode.calls_per_train_doc"] = "calls/doc"
    units.update(UNBOUNDED)
    units.update((f"trace_overhead.{metric}", unit) for metric, unit in END_TO_END.items())
    return units


# ---------------------------------------------------------------------------
# bookkeeping


class Ledger:
    """Attempted and failed operations (commands and documents)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def say(line=""):
    print(line, flush=True)


def sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_cli(argv, stdout_path):
    """`jointparse <argv>` in this process, stdout to a file; (code, seconds).

    Garbage from earlier steps is collected first, as a fresh process
    would not carry it."""
    gc.collect()
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
        elapsed = time.perf_counter() - started
    return code, elapsed


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_record():
    """The loaded OpenBLAS library and its thread count, when detectable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower()}
            )
    except OSError:
        libs = []
    record = {"library": libs[0] if libs else "unknown", "threads": None}
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    record["threads"] = getter()
                    return record
    return record


def peak_rss_mb():
    """Highest peak resident set of this process or any waited-for child
    (the parse workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# one workload


class Run:
    def __init__(self, workload, seed, workdir, ledger):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.ledger = ledger
        self.jobs = cpu_count()
        self.hashes = {}
        # (jobs, output tag) -> validate_tree errors of the last such parse
        self.ill_formed = {}
        self.chunks = []  # parse workloads: slices of the parse documents
        self.next_chunk = 0
        self.losses = None

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    # -- inputs ------------------------------------------------------------

    def prepare(self):
        """Write every input file.  Only texts and counts are kept: the
        trees are dropped so that this process's heap, which the garbage
        collector scans during every command, is about what the program
        itself allocates."""
        w = self.w
        corpus = inputs.pinned_corpus(self.seed, w.corpus_docs, w.lengths, w.max_edus)
        inputs.write_sources(corpus, self.path("rst"), self.path("ptb"), self.seed)
        self.stats = corpus_stats(corpus, bucket=50).to_dict()
        self.gold_blocks = [write_joint(tree) for tree in corpus]
        if w.trains:
            parse_set = corpus[w.train_docs : w.train_docs + w.parse_docs]
            config = {
                "data": {"limit": w.train_docs},
                "model": dict(zip(("word_dim", "hidden_dim", "scorer_hidden"), w.dims)),
                "train": {
                    "epochs": w.epochs,
                    "dev_size": w.dev_size,
                    "seed": 1,
                    "mode": "end2end",
                },
            }
            with open(self.path("run.json"), "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            # `train` holds dev_size documents of the prefix out, drawn as the
            # trainer draws them, and only decodes those.
            order = np.random.default_rng(config["train"]["seed"]).permutation(w.train_docs)
            train_set = [corpus[k] for k in order[w.dev_size :]]
            self.model = self.path("train", "best.ckpt")
        else:
            train_set = []
            parse_set, self.chunks = in_chunks(corpus[: w.parse_docs])
            self.model = self.path("seeded.ckpt")
            # One checkpoint for every benchmark seed: the label inventory
            # and weights decide how deep predicted trees get, and so what
            # eval costs, so a per-seed checkpoint would add seed noise.
            reference = inputs.pinned_corpus("checkpoint", w.corpus_docs, w.lengths, w.max_edus)
            inputs.write_seeded_checkpoint(reference, w.dims, 0, self.model)
        self.parse_words = [[t.text for t in tree.tokens] for tree in parse_set]
        self.parse_edus = [extract_edus(tree) for tree in parse_set]
        inputs.write_tokens(parse_set, self.path("tokens.txt"))
        write_treebank(parse_set, self.path("gold.joint"))
        if w.gold_edus:
            write_segmentation(self.parse_edus, self.path("edus.txt"))
        for k, docs in enumerate(self.chunks):
            inputs.write_tokens(parse_set[docs], self.path(f"tokens-{k}.txt"))
            if w.gold_edus:
                write_segmentation(self.parse_edus[docs], self.path(f"edus-{k}.txt"))
        self.parse_tokens = sum(len(words) for words in self.parse_words)
        self.train_tokens = sum(len(t.tokens) for t in train_set)

    def describe(self):
        w = self.w
        say(f"# workload {w.name}: {w.why}")
        say(f"# model dims word/hidden/scorer = {'/'.join(map(str, w.dims))}")
        say(f"# corpus_stats {json.dumps(self.stats, sort_keys=True)}")
        if w.trains:
            say(
                f"# train: {w.train_docs} docs ({w.dev_size} held out for dev "
                f"decoding), {self.train_tokens} training tokens, {w.epochs} epoch(s)"
            )
        say(
            f"# parse: {len(self.parse_words)} docs, {self.parse_tokens} tokens"
            f"{', gold EDUs' if w.gold_edus else ''}"
        )
        if self.chunks:
            sizes = [sum(map(len, self.parse_words[docs])) for docs in self.chunks]
            say(f"# parse --jobs 1 in {len(self.chunks)} chunks of {sizes} tokens")

    # -- steps ---------------------------------------------------------------

    def step_convert(self):
        out = self.path("converted.joint")
        dropped = self.path("dropped.txt")
        code, elapsed = run_cli(
            ["convert", "--ptb", self.path("ptb"), "--rst", self.path("rst"),
             "--out", out, "--dropped", dropped],
            self.path("convert.out"),
        )
        if self.ledger.op(code == 0, f"convert exited {code}"):
            with open(dropped, encoding="utf-8") as handle:
                for line in handle:
                    self.ledger.op(False, f"convert dropped {line.strip()}")
            # The text form is canonical: equal texts mean equal trees.
            got = [write_joint(tree) for tree in read_treebank(out)]
            want = self.gold_blocks
            self.ledger.op(
                len(got) == len(want), f"convert wrote {len(got)} of {len(want)} trees"
            )
            for k, (tree, gold) in enumerate(zip(got, want)):
                self.ledger.op(tree == gold, f"converted tree {k} differs")
        return elapsed, len(self.gold_blocks)

    def step_setup(self):
        """SETUP_CALLS back-to-back set-ups: a single call takes tens of
        milliseconds, too short to time on its own."""
        if self.w.trains:
            load, source = read_treebank, self.path("converted.joint")
        else:
            load, source = load_checkpoint, self.model
        gc.collect()
        started = time.perf_counter()
        for _ in range(SETUP_CALLS):
            load(source)
        return time.perf_counter() - started, SETUP_CALLS

    def step_train(self):
        shutil.rmtree(self.path("train"), ignore_errors=True)
        code, elapsed = run_cli(
            ["train", "--config", self.path("run.json"),
             "--treebank", self.path("converted.joint"), "--out", self.path("train")],
            self.path("train.out"),
        )
        if self.ledger.op(code == 0, f"train exited {code}"):
            with open(self.path("train", "train.log"), encoding="utf-8") as handle:
                losses = [
                    float(m.group(1))
                    for m in re.finditer(r"^epoch \d+: loss (\S+)", handle.read(), re.M)
                ]
            self.ledger.op(
                len(losses) == self.w.epochs and all(map(math.isfinite, losses)),
                f"epoch losses {losses}",
            )
            self._same_output("losses", hashlib.sha256(json.dumps(losses).encode()).hexdigest())
            self.losses = losses
        return elapsed, self.train_tokens * self.w.epochs

    def step_parse(self, jobs, chunk=None):
        """`parse --jobs <jobs>` of every parse document, or of one chunk."""
        tag = "" if chunk is None else f"-{chunk}"
        docs = slice(None) if chunk is None else self.chunks[chunk]
        argv = ["parse", "--model", self.model, "--input", self.path(f"tokens{tag}.txt"),
                "--jobs", str(jobs)]
        if self.w.gold_edus:
            argv += ["--gold-edus", self.path(f"edus{tag}.txt")]
        pred = self.path(f"pred{tag}.joint")
        code, elapsed = run_cli(argv, pred)
        if self.ledger.op(code == 0, f"parse{tag} --jobs {jobs} exited {code}"):
            self._check_parse(pred, jobs, docs, tag)
        return elapsed, sum(map(len, self.parse_words[docs]))

    def step_parse_next(self):
        """`parse --jobs 1` of the next chunk in turn."""
        chunk = self.next_chunk
        self.next_chunk = (chunk + 1) % len(self.chunks)
        return self.step_parse(1, chunk)

    def join_chunks(self):
        """pred.joint, which eval reads: the chunks' outputs in order.  It
        must equal the output of one parse of all documents."""
        with open(self.path("pred.joint"), "wb") as out:
            for k in range(len(self.chunks)):
                with open(self.path(f"pred-{k}.joint"), "rb") as part:
                    out.write(part.read())
        self._same_output("parse", sha256_file(self.path("pred.joint")))

    def _check_parse(self, pred, jobs, docs, tag):
        errors = self.ill_formed[jobs, tag] = []
        words_list, edus_list = self.parse_words[docs], self.parse_edus[docs]
        try:
            trees = read_treebank(pred)
        except ValueError as err:
            self.ledger.op(False, f"parse{tag} --jobs {jobs} output unreadable: {err}")
            return
        self.ledger.op(
            len(trees) == len(words_list),
            f"parse{tag} --jobs {jobs} wrote {len(trees)} of {len(words_list)} trees",
        )
        for k, (tree, words, edus) in enumerate(zip(trees, words_list, edus_list)):
            ok = [leaf.text for leaf in leaf_tokens(tree.root)] == words
            if self.w.gold_edus:
                ok = ok and extract_edus(tree) == edus
            self.ledger.op(ok, f"parsed document {k} (parse{tag} --jobs {jobs}) fails its checks")
            # Greedy decoding does not enforce the joint-tree invariants
            # (discourse above syntax, two children under a binary
            # relation), so breaches here are reported; the reference
            # corpus of `canary` fails a run whose breaches differ from
            # the recorded ones.
            try:
                validate_tree(tree)
            except ValueError as err:
                errors.append(f"parse{tag} document {k}: {err}")
        # One output for every repetition and worker count.
        self._same_output(f"parse{tag}", sha256_file(pred))

    def step_eval(self):
        out = self.path("eval.out")
        code, elapsed = run_cli(
            ["eval", "--gold", self.path("gold.joint"), "--pred", self.path("pred.joint")],
            out,
        )
        if self.ledger.op(code == 0, f"eval exited {code}"):
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            corpus = report["corpus"]
            self.ledger.op(
                len(report["documents"]) == len(self.parse_words)
                and corpus["struct_f1"] >= corpus["nuc_f1"] >= corpus["rel_f1"],
                f"eval report inconsistent: {corpus}",
            )
            self.eval_corpus = corpus
        return elapsed, len(self.parse_words)

    def check_reference(self):
        """Train and parse the fixed reference corpus; compare the outputs
        with those recorded in reference.json (see `canary`)."""
        try:
            got = canary.outputs(self.path("reference"))
        except Exception as err:  # noqa: BLE001 - any crash is a failed check
            self.ledger.op(False, f"reference run: {type(err).__name__}: {err}")
            return
        for ok, what in canary.compare(got, canary.load_reference()):
            self.ledger.op(ok, what)
        say(f"# reference outputs {json.dumps(got, sort_keys=True)}")

    def _same_output(self, what, digest):
        first = self.hashes.setdefault(what, digest)
        self.ledger.op(first == digest, f"{what} output changed between repetitions")

    # -- measurement -----------------------------------------------------------

    def steps(self, jobs_step):
        """(share name, metric, step) in workload order."""
        steps = [
            ("convert", "convert_docs_per_s", self.step_convert),
            ("setup", "setup_s", self.step_setup),
        ]
        if self.w.trains:
            steps.append(("main", "tokens_per_s", self.step_train))
        else:
            steps.append(("main", "tokens_per_s", self.step_parse_next))
        if jobs_step:
            steps.append(("jobs", "parse_jobsN_tokens_per_s",
                          lambda: self.step_parse(self.jobs)))
        steps.append(("eval", "eval_docs_per_s", self.step_eval))
        return steps

    def measure(self, seconds, trace):
        """Each step's metric over `seconds`, from the totals of its
        repetitions.

        Every step runs once in workload order, since later steps read what
        earlier ones wrote.  The steps whose metrics the run reports are then
        repeated: the one furthest below its share of `seconds` runs next,
        among those whose mean run fits in the time left, and the run ends
        when none fits.  An untraced run (`trace` false) reports only the
        end-to-end metrics, so convert and eval run once, as checks.

        The repetitions are spread over the whole run, and a metric is total
        work over total time: the machine's speed switches between two
        levels about 1.4x apart for seconds at a time, and a median of a few
        repetitions jumps between those levels from one run to the next,
        while totals average over them.  The parse workloads' chunked
        ``parse --jobs 1`` is the exception: it reports the upper quartile
        of the throughputs of a run's some twenty commands.  Its many small
        per-step BLAS calls each run on every CPU, so one other busy process
        on the host more than halves its throughput for as long as that
        process runs.  Such stretches only ever slow commands down; the
        upper quartile passes over them while they cover less than about
        two thirds of the run, where a total or a median keeps them.  Check
        time counts toward each step's share, so the run's length stays
        bounded."""
        steps = self.steps(jobs_step=trace)
        repeated = [e for e in steps if trace or e[1] in END_TO_END]
        total = sum(SHARES[share] for share, _m, _s in repeated)
        budget = {share: SHARES[share] / total * seconds for share, _m, _s in repeated}
        spent = {share: 0.0 for share, _m, _s in steps}
        runs = {share: 0 for share, _m, _s in steps}
        samples = {metric: [] for _share, metric, _s in steps}  # (seconds, work)
        started = time.perf_counter()

        def run(share, metric, step):
            begun = time.perf_counter()
            sample = self.attempt(metric, step)
            if sample is not None:
                samples[metric].append(sample)
            spent[share] += time.perf_counter() - begun
            runs[share] += 1

        for share, metric, step in steps:
            run(share, metric, step)
            if share == "main" and self.w.trains:
                # The predictions that eval reads: the held-out documents,
                # parsed once with the trained checkpoint.
                self.attempt("held-out parse", lambda: self.step_parse(1))
            elif share == "main":
                for _ in self.chunks[1:]:
                    run(share, metric, step)
                self.attempt("joined parse output", self.join_chunks)
        while True:
            left = seconds - (time.perf_counter() - started)
            fitting = [e for e in repeated if spent[e[0]] / runs[e[0]] <= left]
            if not fitting:
                break
            run(*min(fitting, key=lambda e: spent[e[0]] / budget[e[0]]))

        values = {}
        for share, metric, _s in steps:
            values[metric] = self.value(share, metric, samples[metric])
            say(f"#   {metric}: {values[metric]:.6g} {STEP_UNITS[metric]} over "
                f"{len(samples[metric])} repetitions: "
                + " ".join(f"{step_value(metric, *sample):.4g}" for sample in samples[metric]))
        return values

    def attempt(self, metric, step):
        """The step's (seconds, work), or None after recording its exception
        as a failed operation."""
        try:
            return step()
        except Exception as err:  # noqa: BLE001 - any crash is a failed step
            self.ledger.op(False, f"{metric}: {type(err).__name__}: {err}")
            return None

    def traced_pass(self, tracer):
        """Every step once, traced; the parse workloads parse every chunk."""
        values = {}
        tracer.install()
        try:
            for share, metric, step in self.steps(jobs_step=True):
                chunked = share == "main" and not self.w.trains
                with tracer.span(f"bench.{share}"):
                    done = [self.attempt(metric, step)
                            for _ in range(len(self.chunks) if chunked else 1)]
                if chunked:
                    self.attempt("joined parse output", self.join_chunks)
                values[metric] = self.value(share, metric, [s for s in done if s])
        finally:
            tracer.uninstall()
        return values

    def value(self, share, metric, samples):
        """The metric from a step's (seconds, work) samples; see `measure`."""
        if not samples:
            return 0.0  # a step that never succeeded has already failed the run
        if share == "main" and not self.w.trains:
            return upper_quartile([step_value(metric, *sample) for sample in samples])
        return step_value(metric, *map(sum, zip(*samples)))


def in_chunks(trees):
    """`trees` reordered so that each chunk is contiguous, and the chunks
    as slices: the shortest document with the longest, the second
    shortest with the second longest, and so on, so that the chunks hold
    about the same number of tokens."""
    order = sorted(range(len(trees)), key=lambda k: (len(trees[k].tokens), k))
    ordered, chunks = [], []
    while order:
        pair = [order.pop(0)] + ([order.pop()] if order else [])
        chunks.append(slice(len(ordered), len(ordered) + len(pair)))
        ordered.extend(trees[k] for k in pair)
    return ordered, chunks


def upper_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def step_value(metric, seconds, work):
    """Seconds per set-up call for setup_s; work per second otherwise."""
    return seconds / work if metric == "setup_s" else work / seconds


def layer_metrics(tracer, untraced, traced):
    metrics = {}
    for target in tracing.TARGETS:
        name = target.name
        if target.kind == "count":
            metrics[f"{name}.calls"] = tracer.counts.get(name, 0)
            continue
        durations = sorted(tracer.durations(name))
        level = tracing.tail_percentile(len(durations))
        if not durations:
            median = tail = 0.0
        else:
            median = statistics.median(durations)
            tail = tracing.percentile(durations, level) if level else durations[-1]
        values = {
            "s": sum(durations),
            "calls": len(durations),
            "p50_ms": median * 1e3,
            "tail_ms": tail * 1e3,
        }
        if "self_s" in target.fields:
            values["self_s"] = tracer.self_seconds(name)
        for field in target.fields:
            metrics[f"{name}.{field}"] = values[field]
        if target.work:
            metrics[f"{name}.{target.work[0]}"] = tracer.work.get(name, 0)
        if "tail_ms" in target.fields:
            label = f"p{level:g}" if level else "max"
            say(f"#   {name}: {len(durations)} calls, p50 {median * 1e3:.4g} ms, "
                f"{label} {tail * 1e3:.4g} ms")
    metrics["model.encode.calls_per_train_doc"] = tracer.children_per_parent(
        "model.encode", ("trainer.rollout", "model.loss_and_gradients")
    )
    metrics.update((metric, untraced[metric]) for metric in UNBOUNDED)
    for metric in END_TO_END:
        if metric in traced:
            metrics[f"trace_overhead.{metric}"] = traced[metric] - untraced[metric]
    return metrics


# ---------------------------------------------------------------------------
# entry


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="jpbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed, seconds, trace, root):
    """Run one workload; returns the result object printed last."""
    recursion_before = sys.getrecursionlimit()
    blas = blas_record()
    say(f"# nproc {cpu_count()}, python {platform.python_version()}, "
        f"numpy {np.__version__}, blas {blas['library']} threads {blas['threads']}")
    workdir = os.path.join(root, ".jpbench-work", f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ledger = Ledger()
    try:
        run = Run(workload, seed, workdir, ledger)
        run.prepare()
        run.describe()
        run.check_reference()
        budget = seconds / 2 if trace else seconds
        say(f"# untraced steps, {budget:g} s")
        untraced = run.measure(budget, bool(trace))
        untraced["peak_rss_mb"] = peak_rss_mb()
        if trace:
            tracer = tracing.Tracer()
            say("# traced pass")
            traced = run.traced_pass(tracer)
            traced["peak_rss_mb"] = peak_rss_mb()
            spans_dir = os.path.join(root, ".jpbench-work", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{workload.name}-seed{seed}.tsv")
            tracer.write_spans(spans_path)
            say(f"# {len(tracer.start)} spans written to {spans_path}")
            metrics = layer_metrics(tracer, untraced, traced)
            units = per_layer_units()
        else:
            metrics = untraced
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.losses is not None:
        say(f"# epoch losses {run.losses} (train_loss_final {run.losses[-1]})")
    for what, digest in sorted(run.hashes.items()):
        say(f"# sha256 {what} {digest}")
    ill_formed = {}
    for (jobs, _tag), errors in sorted(run.ill_formed.items()):
        ill_formed.setdefault(jobs, []).extend(errors)
    for jobs, errors in sorted(ill_formed.items()):
        say(f"# predicted trees failing validate_tree at --jobs {jobs}: "
            f"{len(errors)} of {len(run.parse_words)}"
            + (f" (first: {errors[0]})" if errors else ""))
    say(f"# eval corpus {json.dumps(getattr(run, 'eval_corpus', None), sort_keys=True)}")
    say(f"# recursion limit before {recursion_before}, after {sys.getrecursionlimit()}")
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    say(f"# failed_share {share:.6g} ({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        say(f"# FAILED {problem}")
    for name, unit in units.items():
        say(f"{name} {metrics[name]:.6g} {unit}")
    return {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    print(json.dumps(result), flush=True)
    return 0
