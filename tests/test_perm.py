import random

import pytest
from hypothesis import example, given, strategies as st

from mindeg.perm import (
    Permutation, compose, compose3, element_order, identity, inverse,
    parse_permutation,
)


def randperm(rng, n):
    imgs = list(range(n))
    rng.shuffle(imgs)
    return Permutation(tuple(imgs))


perm_strategy = st.integers(2, 12).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda p: Permutation(tuple(p)))
)


def test_parse_identity():
    assert parse_permutation("()", 4) == identity(4)


def test_parse_cycles():
    p = parse_permutation("(1 2 3)(4 5)", 5)
    assert p.images == (1, 2, 0, 4, 3)


def test_parse_fixes_unmentioned():
    p = parse_permutation("(1 2)", 4)
    assert p.images == (1, 0, 2, 3)


def test_parse_repeated_point():
    with pytest.raises(ValueError):
        parse_permutation("(1 2)(1 3)", 3)


def test_parse_out_of_range():
    with pytest.raises(ValueError):
        parse_permutation("(1 9)", 3)


def test_parse_malformed():
    with pytest.raises(ValueError):
        parse_permutation("(1 2", 3)
    with pytest.raises(ValueError):
        parse_permutation("(1 x)", 3)


def test_compose_left_to_right():
    a = parse_permutation("(1 2 3)", 3)
    b = parse_permutation("(1 2)", 3)
    assert compose(a, b) == parse_permutation("(2 3)", 3)


def test_compose_identity():
    a = parse_permutation("(1 2 3)", 3)
    assert compose(a, identity(3)) == a


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))
    with pytest.raises(ValueError):
        compose3(identity(3), identity(3), identity(4))


def test_products_on_degrees_1_and_2():
    one = identity(1)
    assert compose(one, one) == one
    assert compose3(one, one, one) == one
    assert compose(one, one).images == (0,)
    t = parse_permutation("(1 2)", 2)
    e = identity(2)
    assert compose(t, t) == e
    assert compose(t, e) == t and compose(e, t) == t
    assert compose3(t, t, t) == t
    assert compose3(t, e, e) == t


def _reference_product(*perms):
    """The left-to-right product, one point at a time."""
    images = []
    for x in range(perms[0].degree):
        for p in perms:
            x = p.images[x]
        images.append(x)
    return tuple(images)


@given(st.integers(1, 300), st.randoms(use_true_random=False))
@example(1, random.Random(0))
@example(257, random.Random(0))  # images above 255
def test_products_match_the_pointwise_reference(n, rng):
    a, b, c = (randperm(rng, n) for _ in range(3))
    ab = compose(a, b)
    assert type(ab.images) is tuple
    assert ab.images == _reference_product(a, b)
    assert compose3(a, b, c).images == _reference_product(a, b, c)


def test_inverse_examples():
    assert inverse(identity(5)) == identity(5)
    assert inverse(parse_permutation("(1 2 3)", 3)) == parse_permutation("(1 3 2)", 3)
    assert inverse(parse_permutation("(1 2)(3 4 5)", 5)) == parse_permutation("(1 2)(3 5 4)", 5)


def test_element_order_examples():
    assert element_order(identity(4)) == 1
    assert element_order(parse_permutation("(1 2)(3 4 5)", 5)) == 6
    assert element_order(parse_permutation("(1 2 3 4 5 6 7)", 7)) == 7


@given(perm_strategy)
def test_inverse_law(a):
    assert compose(a, inverse(a)) == identity(a.degree)
    assert compose(inverse(a), a) == identity(a.degree)


@given(st.integers(2, 10), st.data())
def test_compose_associative(n, data):
    ps = [Permutation(tuple(data.draw(st.permutations(list(range(n)))))) for _ in range(3)]
    a, b, c = ps
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose3(a, b, c) == compose(compose(a, b), c)


@given(perm_strategy)
def test_format_parse_roundtrip(a):
    assert parse_permutation(str(a), a.degree) == a


@given(perm_strategy)
def test_order_is_annihilating(a):
    k = element_order(a)
    g = identity(a.degree)
    for _ in range(k):
        g = compose(g, a)
    assert g == identity(a.degree)
