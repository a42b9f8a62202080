import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mindeg.perm import (
    Permutation, compose, compose3, conjugator, element_order, identity,
    inverse, parse_permutation, power, right_closure,
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
@example(2, random.Random(0))
@example(255, random.Random(0))
@example(256, random.Random(0))  # the largest degree stored as bytes
@example(257, random.Random(0))  # images above 255
@example(300, random.Random(0))
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


# Degrees around the switch between bytes tables (up to 256) and tuples.
KERNEL_DEGREES = [1, 2, 255, 256, 257, 300]


def _reference_inverse(p):
    images = [0] * p.degree
    for x in range(p.degree):
        images[p.images[x]] = x
    return tuple(images)


@pytest.mark.parametrize("n", KERNEL_DEGREES)
@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_match_the_pointwise_reference(n, seed):
    # products are checked at these degrees by the test above
    rng = random.Random(seed)
    a, b, c = (randperm(rng, n) for _ in range(3))
    assert inverse(a).images == _reference_inverse(a)
    e = identity(n)
    assert e.images == tuple(range(n)) and e.is_identity()
    assert compose(a, inverse(a)).is_identity()
    if n > 1:
        assert not Permutation((1, 0) + tuple(range(2, n))).is_identity()
    assert power(a, 0) == e
    for k in (1, 2, 5, 13):
        assert power(a, k).images == _reference_product(*[a] * k)
    o = element_order(a)
    assert power(a, o) == e and power(a, o + 3) == power(a, 3)
    # x -> g^-1 x g on tables, against the pointwise product
    conj, cinv = conjugator(c), Permutation(_reference_inverse(c))
    for x in (a, b, e):
        y = conj(x.table)
        assert tuple(y) == _reference_product(cinv, x, c)
        assert Permutation(y) == compose3(inverse(c), x, c)


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_images_is_a_tuple_at_every_degree(n):
    rng = random.Random(n)
    a, b = randperm(rng, n), randperm(rng, n)
    for p in (a, Permutation(list(a.images)), identity(n), compose(a, b),
              compose3(a, b, a), inverse(a), power(a, 3),
              Permutation(conjugator(b)(a.table))):
        assert type(p.images) is tuple
        assert p.images == tuple(p.table) and p.degree == n


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_table_and_images_agree_on_equality_hashing_and_order(n):
    rng = random.Random(n + 1)
    gens = [randperm(rng, n) for _ in range(3)]
    # the same elements reached by different routes, with repeats
    perms = gens + [compose(g, h) for g in gens for h in gens]
    perms += [Permutation(p.images) for p in perms]
    perms += [compose(inverse(g), g) for g in gens] + [identity(n)]
    for p in perms:
        for q in perms:
            assert (p == q) == (p.images == q.images)
            assert (p.table == q.table) == (p.images == q.images)
            assert (p.table < q.table) == (p.images < q.images)
            if p == q:
                assert hash(p) == hash(q)
    assert len(set(perms)) == len({p.table for p in perms}) \
        == len({p.images for p in perms})
    assert min(perms, key=lambda p: p.table) == \
        min(perms, key=lambda p: p.images)
    assert sorted(perms, key=lambda p: p.table) == \
        sorted(perms, key=lambda p: p.images)


@pytest.mark.parametrize("n", [3, 300])
def test_buffer_inputs_are_read_as_ints(n):
    # bytes() of an int buffer would copy its raw memory instead
    images = [1, 0] + list(range(2, n))
    for seq in (array("i", images), np.array(images)):
        p = Permutation(seq)
        assert p.degree == n and p.images == tuple(images)
        assert all(type(x) is int for x in p.images)
        assert p == Permutation(images) and hash(p) == hash(Permutation(images))


def test_right_closure_lists_the_group_with_its_products():
    gens = [parse_permutation("(1 2 3)", 4), parse_permutation("(1 2)", 4)]
    els, prods = right_closure(4, gens)
    assert els[0] == identity(4) and len(els) == len(set(els)) == 6
    for x, row in zip(els, prods):
        assert [els[j] for j in row] == [compose(x, g) for g in gens]
    with pytest.raises(ValueError):
        right_closure(257, [])
