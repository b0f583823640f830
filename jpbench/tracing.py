"""Spans and counters around calls into the program's modules.

`Tracer.install()` replaces selected functions and methods of the
`jointparse` package with wrappers that record one span per call (name,
start, end, parent span, document id) or, for the hottest helpers, only a
call count.  Modules that imported a function by name hold their own
reference, so every module binding that is the original function object is
replaced, unless a target restricts itself to named modules.  `uninstall()`
puts the originals back.  Spans stay in memory until `write_spans`.
"""

import contextlib
import dataclasses
import functools
import math
import os
import sys
import time
from array import array

TIMED = ("s", "calls", "p50_ms", "tail_ms")


def _checkpoint_bytes(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def _encoded_tokens(args, kwargs):
    ids = kwargs.get("ids", args[1] if len(args) > 1 else None)
    return len(ids)


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped function and the per-layer metrics reported for it.

    `kind`: "doc" opens a new document id, "corpus" clears it, "span"
    inherits it, "count" records only a call count.  `fields` are reported
    as "<name>.<field>": total seconds "s", "self_s" (minus direct child
    spans), "calls", and per call "p50_ms" and "tail_ms" (the highest usual
    tail percentile with at least ten calls beyond it, else the maximum).
    `work` is (unit, counter): a work total recorded at the same boundary,
    reported as "<name>.<unit>".  `only` restricts wrapping to the bindings
    in the named modules; None wraps every binding of the same object."""

    module: str
    path: str
    kind: str = "span"
    fields: tuple = ("s", "calls")
    work: tuple = ()
    only: tuple = None

    @property
    def name(self):
        return f"{self.module}.{self.path}"


TARGETS = (
    Target("model", "encode", fields=TIMED, work=("tokens", _encoded_tokens)),
    Target("model", "SpanScorer.prepare", fields=("s",)),
    Target("model", "SpanScorer.structural", fields=TIMED),
    Target("model", "SpanScorer.labels", fields=TIMED),
    # The rollout's head forwards only: loss_and_gradients and SpanScorer
    # reach the same functions through the model module's own globals.
    Target("model", "structural_raw_scores", fields=TIMED, only=("trainer",)),
    Target("model", "label_raw_scores", fields=TIMED, only=("trainer",)),
    Target("model", "loss_and_gradients", fields=("s", "self_s") + TIMED[1:]),
    Target("transition", "dynamic_oracle", fields=TIMED),
    Target("transition", "parse_greedy", "doc", fields=("s", "self_s") + TIMED[1:]),
    Target("transition", "reconstruct"),
    Target("trainer", "rollout", "doc", fields=("s", "self_s") + TIMED[1:]),
    Target("trainer", "Adam.update", fields=TIMED),
    Target("trainer", "dev_metrics", "corpus"),
    Target("model", "save_checkpoint", "corpus", work=("bytes", _checkpoint_bytes)),
    Target("model", "load_checkpoint", "corpus"),
    Target("serialize", "read_treebank", "corpus"),
    Target("serialize", "write_treebank", "corpus"),
    Target("serialize", "write_joint", fields=TIMED),
    Target("convert", "convert_document", "doc", fields=TIMED),
    Target("rst", "read_rst"),
    Target("ptb", "read_ptb"),
    Target("convert", "splice_edus"),
    Target("evaluate", "corpus_report", "corpus"),
    Target("trees", "labeled_spans"),
    Target("transition", "reachable_count", "count", fields=("calls",)),
    Target("transition", "apply_action", "count", fields=("calls",)),
)

PACKAGE = "jointparse"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = []  # span index -> name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.doc = array("q")
        self.counts = {}
        self.work = {}  # name -> work total
        self._stack = []
        self._current_doc = -1
        self._next_doc = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id, kind):
        if kind == "doc":
            self._current_doc = self._next_doc
            self._next_doc += 1
        elif kind == "corpus":
            self._current_doc = -1
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.doc.append(self._current_doc)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, kind="corpus"):
        """A span recorded around a block of the benchmark itself."""
        index = self._open(self._name_id(name), kind)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, target, fn):
        name = target.name
        if target.kind == "count":
            counts = self.counts
            counts.setdefault(name, 0)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = self._name_id(name)
        kind = target.kind
        counter = target.work[1] if target.work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.work[name] = self.work.get(name, 0) + counter(args, kwargs)
            return result

        return traced

    def install(self):
        modules = {
            key.split(".", 1)[1]: mod
            for key, mod in sys.modules.items()
            if key.startswith(PACKAGE + ".") and mod is not None
        }
        for target in TARGETS:
            head, _, attr = target.path.rpartition(".")
            if head:  # a method: patch the class attribute
                owner = getattr(modules[target.module], head)
                self._patch(owner, attr, self._wrap(target, owner.__dict__[attr]))
                continue
            original = getattr(modules[target.module], attr)
            wrapper = self._wrap(target, original)
            for other_name, module in modules.items():
                if target.only is not None and other_name not in target.only:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def spans_named(self, name):
        name_id = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name_of) if n == name_id]

    def durations(self, name):
        return [self.end[i] - self.start[i] for i in self.spans_named(name)]

    def self_seconds(self, name):
        """Span time minus the time covered by direct child spans (calls
        run on one thread, so children never overlap)."""
        wanted = set(self.spans_named(name))
        total = sum(self.end[i] - self.start[i] for i in wanted)
        for i, parent in enumerate(self.parent):
            if parent in wanted:
                total -= self.end[i] - self.start[i]
        return total

    def children_per_parent(self, child, parents):
        """Calls of `child` whose direct parent is one of `parents`, per
        call of the first parent."""
        child_id = self._name_ids.get(child)
        parent_ids = {self._name_ids.get(p) for p in parents}
        hits = sum(
            1
            for i, n in enumerate(self.name_of)
            if n == child_id and self.parent[i] >= 0
            and self.name_of[self.parent[i]] in parent_ids
        )
        base = len(self.spans_named(parents[0]))
        return hits / base if base else 0.0

    def write_spans(self, path):
        """Tab-separated: index, name, start, end, parent index, document."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\tdoc\n")
            for i, name_id in enumerate(self.name_of):
                handle.write(
                    f"{i}\t{self.names[name_id]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.doc[i]}\n"
                )


def tail_percentile(count):
    """The highest of the usual tail levels with at least ten samples beyond
    it, or None (report the maximum) when there are fewer than forty."""
    for level in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - level) / 100.0 >= 10:
            return level
    return None


def percentile(sorted_values, level):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(level / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
