import pytest

from jointparse.rst import (
    RstLeaf,
    RstNode,
    RstParseError,
    RstStructureError,
    read_rst,
)


def test_fig1_layout(fig1_texts):
    rst_text, _ = fig1_texts
    tree = read_rst(rst_text)
    root = tree.root
    assert isinstance(root, RstNode)
    internal = [n for n in _walk(root) if isinstance(n, RstNode)]
    assert len(internal) == 2
    edus = [n for n in _walk(root) if isinstance(n, RstLeaf)]
    assert len(edus) == 3
    assert edus[0].text.startswith("Costa Rica")
    assert edus[0].nuclearity == "Satellite"
    assert edus[0].relation == "Background"
    inner = root.children[1]
    assert inner.children[1].relation == "Purpose"


def _walk(node):
    yield node
    if isinstance(node, RstNode):
        for child in node.children:
            yield from _walk(child)


def test_fig2_multinuclear(fig2_texts):
    rst_text, _ = fig2_texts
    tree = read_rst(rst_text)
    root = tree.root
    assert len(root.children) == 2
    satellite = root.children[1]
    assert satellite.nuclearity == "Satellite"
    assert satellite.relation == "Elaboration"
    assert len(satellite.children) == 3
    assert all(c.nuclearity == "Nucleus" for c in satellite.children)
    assert {c.relation for c in satellite.children} == {"List"}


def test_single_edu_document():
    tree = read_rst("( Root (leaf 1) (text _!one clause only!_))")
    assert isinstance(tree.root, RstLeaf)
    assert tree.root.text == "one clause only"


def test_two_satellites_rejected():
    text = """( Root (span 1 2)
      (Satellite (leaf 1) (rel2par Cause) (text _!a!_))
      (Satellite (leaf 2) (rel2par Cause) (text _!b!_)))"""
    with pytest.raises(RstStructureError, match="two satellites"):
        read_rst(text)


def test_missing_relation_rejected():
    text = """( Root (span 1 2)
      (Nucleus (leaf 1) (text _!a!_))
      (Satellite (leaf 2) (rel2par Cause) (text _!b!_)))"""
    with pytest.raises(RstStructureError, match="rel2par"):
        read_rst(text)


def test_satellite_without_named_relation_rejected():
    text = """( Root (span 1 2)
      (Nucleus (leaf 1) (rel2par span) (text _!a!_))
      (Satellite (leaf 2) (rel2par span) (text _!b!_)))"""
    with pytest.raises(RstStructureError, match="satellite without"):
        read_rst(text)


def test_parse_errors():
    with pytest.raises(RstParseError):
        read_rst("")
    with pytest.raises(RstParseError):
        read_rst("( Root (span 1 2) (Nucleus (leaf 1) (rel2par span) (text _!a!_))")
    with pytest.raises(RstParseError, match="unknown node type"):
        read_rst("( Chunk (leaf 1) (text _!a!_))")


def test_edu_text_may_contain_parens():
    tree = read_rst("( Root (leaf 1) (text _!a (small) aside!_))")
    assert tree.root.text == "a (small) aside"
