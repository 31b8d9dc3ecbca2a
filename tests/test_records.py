"""The value classes keep their repr, equality and hash forms: repr lists
every field as ``name=value``, equality needs the same class and equal
fields, and the hash is that of the field tuple."""

import pytest

from schubring.invariants import GeneratorSet
from schubring.raising import PfaffianSpec, RaisingExpression, rr_expression
from schubring.serialize import PolynomialDocument
from schubring.weyl import SignedPermutation, TypedPartition, shape, transition_data

W = SignedPermutation((-3, 2, -7, -1, 5, 4, -6), "BC")

CASES = [
    (
        SignedPermutation((2, -1, 3)),
        "SignedPermutation(window=(2, -1), flavor='BC')",
        ((2, -1), "BC"),
    ),
    (
        shape(W),
        "ShapeData(mu=(7, 6, 3, 1), gamma=(2, 3, 0, 1, 2, 1, 0), delta=(3, 2, 2, 1, 1), "
        "nu=(5, 3, 1), lam=(12, 9, 4, 1))",
        ((7, 6, 3, 1), (2, 3, 0, 1, 2, 1, 0), (3, 2, 2, 1, 1), (5, 3, 1), (12, 9, 4, 1)),
    ),
    (
        TypedPartition((2, 1), 2, 1),
        "TypedPartition(parts=(2, 1), n=2, ptype=1)",
        ((2, 1), 2, 1),
    ),
    (
        TypedPartition((1,), 2),
        "TypedPartition(parts=(1,), n=2, ptype=0)",
        ((1,), 2, 0),
    ),
    (
        transition_data(SignedPermutation((2, -1), "BC")),
        "TransitionData(r=1, s=2, v=SignedPermutation(window=(-1,), flavor='BC'), "
        "plain_branch=(), bar_branch=(SignedPermutation(window=(-2, 1), flavor='BC'),), "
        "y_sign=-1, y_index=1)",
        (1, 2, SignedPermutation((-1,)), (), (SignedPermutation((-2, 1)),), -1, 1),
    ),
    (
        rr_expression(2),
        "RaisingExpression(arity=2, inverted=((1, 2),))",
        (2, ((1, 2),)),
    ),
    (
        PfaffianSpec((0,), (-1,), (2,), hatted=True),
        "PfaffianSpec(rho=(0,), beta=(-1,), alpha=(2,), hatted=True)",
        ((0,), (-1,), (2,), True),
    ),
    (
        GeneratorSet("gamma", 1, ()),
        "GeneratorSet(tag='gamma', n=1, elements=())",
        ("gamma", 1, ()),
    ),
]


@pytest.mark.parametrize("value, text, fields", CASES, ids=lambda v: type(v).__name__)
def test_repr_eq_hash(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    twin = type(value)(*fields)
    assert twin == value and not twin != value and twin is not value
    assert value != fields


def test_unequal_values():
    assert SignedPermutation((2, 1)) != SignedPermutation((2, 1), "D")
    assert SignedPermutation((2, 1), "A") != SignedPermutation((1, 2), "A")
    assert TypedPartition((2,), 2, 1) != TypedPartition((2,), 2, 2)


def test_document_is_unhashable():
    doc = PolynomialDocument("c", [["1", [], [], []]])
    assert repr(doc) == "PolynomialDocument(family='c', terms=[['1', [], [], []]], metadata={})"
    assert doc == PolynomialDocument("c", [["1", [], [], []]], {})
    assert doc != PolynomialDocument("b", [["1", [], [], []]])
    assert PolynomialDocument("c", []).metadata is not PolynomialDocument("c", []).metadata
    with pytest.raises(TypeError):
        hash(doc)


def test_validation_still_raises():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((-1,), "D")
    with pytest.raises(ValueError):
        TypedPartition((2,), 2, 0)
    with pytest.raises(ValueError):
        TypedPartition((2, 2), 1, 0)
    with pytest.raises(ValueError):
        RaisingExpression(2, ((1, 3),))
