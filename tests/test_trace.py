"""Unit tests for the merge trace (decision tree) structures."""

from repro.conditions import Condition, Conjunction
from repro.scheduling.trace import DecisionNode, MergeTrace

C = Condition("C")
D = Condition("D")


def build_tree():
    root = DecisionNode(
        known=Conjunction.true(),
        selected_path=Conjunction.of(C.true(), D.true()),
        entered_by_back_step=False,
        branch_condition=C,
        branch_time=5.0,
    )
    left = DecisionNode(
        known=Conjunction.of(C.true()),
        selected_path=Conjunction.of(C.true(), D.true()),
        entered_by_back_step=False,
        depth=1,
    )
    right = DecisionNode(
        known=Conjunction.of(C.false()),
        selected_path=Conjunction.of(C.false()),
        entered_by_back_step=True,
        depth=1,
    )
    root.children = [left, right]
    trace = MergeTrace(
        root=root,
        path_delays={
            Conjunction.of(C.true(), D.true()): 20.0,
            Conjunction.of(C.false()): 15.0,
        },
        back_steps=1,
    )
    return trace, root, left, right


def test_nodes_are_depth_first():
    trace, root, left, right = build_tree()
    assert trace.nodes() == [root, left, right]


def test_leaves_exclude_branching_nodes():
    trace, root, left, right = build_tree()
    assert trace.leaves() == [left, right]
    assert not root.is_leaf and left.is_leaf


def test_render_marks_back_steps():
    trace, *_ = build_tree()
    text = trace.render()
    assert "->" in text and "<=" in text
    assert "branches on C" in text


def test_empty_trace():
    trace = MergeTrace()
    assert trace.nodes() == []
    assert trace.leaves() == []
    assert trace.render() == ""


def test_node_str_mentions_back_step():
    _, _, _, right = build_tree()
    assert "back-step" in str(right)
