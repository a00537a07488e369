"""Unit and property-based tests for sum-of-products boolean expressions.

The property tests hold every mask-based query of :class:`BoolExpr` to a
brute-force reference kept here: the expression's truth table over
``CONDITIONS``, evaluated term by term on ``Condition -> bool`` dicts.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions import BoolExpr, Condition, Conjunction, Literal

C = Condition("C")
D = Condition("D")
K = Condition("K")

CONDITIONS = [C, D, K, Condition("M"), Condition("N")]


def expr_of(*terms):
    return BoolExpr([Conjunction(term) for term in terms])


def masks(assignment):
    known = Conjunction.from_assignment(assignment)
    return known.pos_mask, known.neg_mask


# -- the brute-force reference --------------------------------------------------------


def holds(expr, assignment):
    """Some term has every literal assigned, with the literal's value."""
    return any(
        all(assignment.get(literal.condition) == literal.value for literal in term)
        for term in expr.terms
    )


ALL_ROWS = frozenset(itertools.product((False, True), repeat=len(CONDITIONS)))


def rows(expr):
    """The complete assignments of ``CONDITIONS`` under which ``expr`` holds."""
    return frozenset(
        values for values in ALL_ROWS if holds(expr, dict(zip(CONDITIONS, values)))
    )


def reference_minterms(expr):
    """The minterms over the conditions that change ``expr``'s value."""
    conditions = sorted(expr.conditions)
    table = {
        values: holds(expr, dict(zip(conditions, values)))
        for values in itertools.product((False, True), repeat=len(conditions))
    }
    if all(table.values()):
        return frozenset({Conjunction.true()})
    relevant = [
        index
        for index in range(len(conditions))
        if any(
            table[values]
            != table[values[:index] + (not values[index],) + values[index + 1 :]]
            for values in table
        )
    ]
    return frozenset(
        Conjunction(Literal(conditions[index], values[index]) for index in relevant)
        for values, value in table.items()
        if value
    )


def reference_str(terms):
    if not terms:
        return "false"
    if terms == {Conjunction.true()}:
        return "true"
    return " | ".join(
        f"({term})" if len(term) > 1 else str(term) for term in sorted(terms, key=str)
    )


class TestBasics:
    def test_true_and_false(self):
        assert BoolExpr.true().is_true()
        assert BoolExpr.false().is_false()
        assert not BoolExpr.true().is_false()

    def test_from_literal(self):
        expr = BoolExpr.from_literal(C.true())
        assert expr.satisfied_by_masks(*masks({C: True}))
        assert not expr.satisfied_by_masks(*masks({C: False}))

    def test_str_forms(self):
        assert str(BoolExpr.true()) == "true"
        assert str(BoolExpr.false()) == "false"
        assert "C" in str(BoolExpr.from_literal(C.true()))

    def test_absorption(self):
        expr = expr_of([C.true()], [C.true(), D.true()])
        assert expr.terms == {Conjunction.of(C.true())}
        assert expr == BoolExpr.from_literal(C.true())

    def test_contradictory_product_dropped(self):
        expr = BoolExpr.from_literal(C.true()).and_(BoolExpr.from_literal(C.false()))
        assert expr.is_false()

    def test_conditions_property(self):
        expr = expr_of([C.true()], [D.false()])
        assert expr.conditions == frozenset({C, D})


class TestAlgebra:
    def test_or_of_complementary_literals_is_true(self):
        expr = BoolExpr.from_literal(C.true()) | BoolExpr.from_literal(C.false())
        assert expr.is_true()
        assert expr == BoolExpr.true()

    def test_and_distributes(self):
        left = expr_of([C.true()], [C.false()])
        right = BoolExpr.from_literal(D.true())
        combined = left & right
        assert combined == BoolExpr.from_literal(D.true())

    def test_and_with_false_is_false(self):
        assert (BoolExpr.from_literal(C.true()) & BoolExpr.false()).is_false()

    def test_or_with_true_is_true(self):
        assert (BoolExpr.from_literal(C.true()) | BoolExpr.true()).is_true()

    def test_implies_reflexive(self):
        expr = expr_of([C.true(), D.false()])
        assert expr.implies(expr)

    def test_implies_weakening(self):
        specific = expr_of([C.true(), D.true()])
        general = expr_of([C.true()])
        assert specific.implies(general)
        assert not general.implies(specific)

    def test_false_implies_everything(self):
        assert BoolExpr.false().implies(expr_of([K.true()]))

    def test_mutual_exclusion(self):
        assert expr_of([C.true()]).is_mutually_exclusive_with(expr_of([C.false()]))
        assert not expr_of([C.true()]).is_mutually_exclusive_with(expr_of([D.true()]))

    def test_covers_conjunction(self):
        """Requirement 1's question: does a column imply a guard?"""
        guard = expr_of([D.true(), K.true()])
        column = Conjunction.of(D.true(), K.true(), C.false())
        assert BoolExpr.from_conjunction(column).implies(guard)
        assert not BoolExpr.from_conjunction(Conjunction.of(D.true())).implies(guard)
        # No term of the guard is a submask of the column: settled by splitting.
        split = expr_of([C.true(), D.true()], [C.false(), D.true()])
        assert BoolExpr.from_conjunction(Conjunction.of(D.true())).implies(split)

    def test_equality_is_semantic(self):
        pairs = [
            (expr_of([C.true()], [C.false(), D.true()]), expr_of([C.true()], [D.true()])),
            (expr_of([C.true()], [C.false()]), BoolExpr.true()),
            (expr_of([C.true(), D.true()], [C.true(), D.false()]), expr_of([C.true()])),
        ]
        for left, right in pairs:
            assert left.terms != right.terms
            assert left == right
            # Equal expressions with different terms: no hash can agree with ==.
            with pytest.raises(TypeError):
                hash(left)
            with pytest.raises(TypeError):
                hash(right)

    def test_satisfying_assignments(self):
        expr = expr_of([C.true(), D.false()])
        matches = {
            (c, d)
            for c in (False, True)
            for d in (False, True)
            if expr.satisfied_by_masks(*masks({C: c, D: d}))
        }
        assert matches == {(True, False)}

    def test_simplified_drops_conditions_that_never_matter(self):
        expr = expr_of([C.true(), D.true(), K.true()], [C.true(), D.false(), K.true()])
        assert expr.simplified().terms == {Conjunction.of(C.true(), K.true())}
        assert str(expr.simplified()) == "(C & K)"

    def test_simplified_keeps_a_single_term(self):
        expr = expr_of([C.true(), D.false(), K.true()])
        assert expr.simplified() is expr


# -- property-based tests -----------------------------------------------------------


@st.composite
def conjunctions(draw, conditions=tuple(CONDITIONS)):
    literals = st.sampled_from(
        [condition.literal(value) for condition in conditions for value in (True, False)]
    )
    chosen = draw(st.lists(literals, max_size=len(conditions)))
    consistent = {}
    for literal in chosen:
        consistent.setdefault(literal.condition, literal)
    return Conjunction(consistent.values())


@st.composite
def expressions(draw):
    # Fewer conditions in play make terms that cancel a condition likelier.
    used = tuple(CONDITIONS[: draw(st.integers(1, len(CONDITIONS)))])
    terms = draw(st.lists(conjunctions(used), max_size=4))
    return BoolExpr(terms)


def partial_assignments():
    return st.dictionaries(st.sampled_from(CONDITIONS), st.booleans())


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_or_semantics(left, right):
    assert rows(left | right) == rows(left) | rows(right)


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_and_semantics(left, right):
    assert rows(left & right) == rows(left) & rows(right)


@settings(max_examples=200, deadline=None)
@given(expressions(), expressions())
def test_implication_matches_evaluation(left, right):
    assert left.implies(right) == (rows(left) <= rows(right))


@settings(max_examples=200, deadline=None)
@given(expressions(), expressions(), partial_assignments())
def test_queries_match_the_truth_table_reference(left, right, partial):
    left_rows, right_rows = rows(left), rows(right)
    assert left.is_mutually_exclusive_with(right) == (not left_rows & right_rows)
    assert left.is_true() == (left_rows == ALL_ROWS)
    assert (left == right) == (left_rows == right_rows)
    assert left.satisfied_by_masks(*masks(partial)) == holds(left, partial)


@settings(max_examples=200, deadline=None)
@given(expressions())
def test_simplified_returns_the_reference_minterms(expr):
    expected = reference_minterms(expr)
    simplified = expr.simplified()
    assert simplified.terms == expected
    assert str(simplified) == reference_str(expected)
    assert rows(simplified) == rows(expr)


@settings(max_examples=60, deadline=None)
@given(conjunctions(), conjunctions())
def test_conjunction_exclusion_matches_expression_exclusion(left, right):
    as_expr = BoolExpr.from_conjunction(left).is_mutually_exclusive_with(
        BoolExpr.from_conjunction(right)
    )
    assert left.is_mutually_exclusive_with(right) == as_expr


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_expression_equivalent_to_itself_or_true_false(expr):
    assert expr == expr
    if expr.is_false():
        assert not expr.is_satisfiable()
    else:
        assert expr.is_satisfiable()


@pytest.mark.parametrize("value", [True, False])
def test_single_condition_round_trip(value):
    expr = BoolExpr.from_literal(C.literal(value))
    assert expr.satisfied_by_masks(*masks({C: value}))
    assert not expr.satisfied_by_masks(*masks({C: not value}))
