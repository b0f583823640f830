"""Mutation fuzzing of the text readers.

Randomly damaged inputs must either still parse or fail with the reader's
own error type; anything else (IndexError, RecursionError, ...) is a bug
in input validation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text

from jointparse.ptb import PtbParseError, read_ptb
from jointparse.rst import RstParseError, RstStructureError, read_rst
from jointparse.serialize import JointParseError, read_joint, write_joint
from jointparse.synthetic import generate_synthetic
from jointparse.trees import InvariantError

ALPHABET = "()<->+SNPx list! _"


def mutate(text, rng):
    kind = rng.randrange(3)
    pos = rng.randrange(len(text))
    if kind == 0:
        return text[:pos] + rng.choice(ALPHABET) + text[pos:]
    if kind == 1:
        return text[:pos] + text[pos + 1 :]
    return text[:pos] + rng.choice(ALPHABET) + text[pos + 1 :]


@pytest.mark.parametrize("seed", range(4))
def test_joint_reader_survives_mutations(seed):
    rng = random.Random(seed)
    base = write_joint(generate_synthetic(f"fuzz/{seed}", max_tokens=12))
    for _ in range(150):
        damaged = mutate(base, rng)
        try:
            tree = read_joint(damaged)
        except (JointParseError, InvariantError):
            continue
        assert tree.tokens  # parsed: must at least be a real tree


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=60))
def test_joint_reader_on_random_strings(text):
    try:
        tree = read_joint(text)
    except (JointParseError, InvariantError):
        return
    assert tree.tokens
    assert read_joint(write_joint(tree)) == tree


@pytest.mark.parametrize("seed", range(4))
def test_ptb_reader_survives_mutations(seed):
    rng = random.Random(seed)
    base = fixture_text("fig1.mrg")
    for _ in range(150):
        damaged = mutate(base, rng)
        try:
            read_ptb(damaged)
        except PtbParseError:
            continue


@pytest.mark.parametrize("seed", range(4))
def test_rst_reader_survives_mutations(seed):
    rng = random.Random(seed)
    base = fixture_text("fig1.dis")
    for _ in range(150):
        damaged = mutate(base, rng)
        try:
            read_rst(damaged)
        except (RstParseError, RstStructureError):
            continue
