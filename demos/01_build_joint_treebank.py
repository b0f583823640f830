"""Build a joint syntacto-discourse tree from its two source annotations.

A discourse tree (nucleus/satellite structure over EDUs) and the matching
constituency trees are merged: relations become node labels with an arrow
pointing from the satellite toward the nucleus, and each EDU leaf is
replaced by the constituency material it covers.
"""

from jointparse import convert, serialize
from jointparse.trees import extract_edus, labeled_spans, is_discourse_chain

DISCOURSE = """
( Root (span 1 3)
  (Satellite (leaf 1) (rel2par Background)
    (text _!Costa Rica had been negotiating with U.S. banks!_))
  (Nucleus (span 2 3) (rel2par span)
    (Nucleus (leaf 2) (rel2par span)
      (text _!but the debt plan was rushed to completion!_))
    (Satellite (leaf 3) (rel2par Purpose)
      (text _!in order to be announced at the meeting!_))))
"""

CONSTITUENCY = """
( (S
  (S (NP (NNP Costa) (NNP Rica))
     (VP (VBD had) (VP (VBN been) (VP (VBG negotiating)
         (PP (IN with) (NP (NNP U.S.) (NNS banks)))))))
  (S (CC but)
     (S (NP (DT the) (NN debt) (NN plan))
        (VP (VBD was) (VP (VBN rushed) (PP (TO to) (NP (NN completion)))))))
  (SBAR (IN in) (NN order)
        (S (VP (TO to) (VP (VB be) (VP (VBN announced)
            (PP (IN at) (NP (DT the) (NN meeting)))))))) ))
"""


def main():
    tree = convert.convert_document(DISCOURSE, CONSTITUENCY)
    print("joint tree:")
    print(" ", serialize.write_joint(tree))
    print()

    print("EDU segmentation recovered from the joint tree:")
    for span in extract_edus(tree):
        words = " ".join(t.text for t in tree.tokens[span.start : span.end])
        print(f"  [{span.start:2d}, {span.end:2d})  {words}")
    print()

    print("discourse layer spans:")
    for span in sorted(labeled_spans(tree), key=lambda s: (s.start, -s.end)):
        if is_discourse_chain(span.chain):
            print(f"  ({span.start}, {span.end})  {span.chain}")
    print()

    print("round trip through the text format:",
          serialize.read_joint(serialize.write_joint(tree)) == tree)

    # A document whose second EDU covers two subtrees: the cover node takes
    # the label of their lowest common ancestor, and the out-of-EDU sibling
    # surfaces above the relation.
    from jointparse.convert import SkeletonLeaf
    from jointparse.ptb import read_ptb
    from jointparse.trees import DiscourseLabel, Internal, SATELLITE_THEN_NUCLEUS

    skeleton = Internal(
        DiscourseLabel("Purpose", SATELLITE_THEN_NUCLEUS),
        [SkeletonLeaf("B"), SkeletonLeaf("C D")],
    )
    spliced = convert.splice_edus(skeleton, read_ptb("(A B C D)"))
    print()
    print("EDU covering two subtrees of (A B C D):")
    print(" ", serialize.write_joint(spliced))


if __name__ == "__main__":
    main()
