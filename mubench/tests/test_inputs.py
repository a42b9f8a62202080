import math
import random

import pytest

import inputs
from mindeg.cli import parse_group_file
from mindeg.pipeline import load_hint_file


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", ["mu-small", "mu-large", "oracle"])
def test_same_seed_gives_identical_files(tmp_path, workload):
    inputs.make_items(workload, 7, tmp_path / "a", copies=2)
    inputs.make_items(workload, 7, tmp_path / "b", copies=2)
    inputs.make_items(workload, 8, tmp_path / "c", copies=2)
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c


def test_copies_are_distinct_relabellings(tmp_path):
    items = inputs.make_items("mu-small", 3, tmp_path, copies=2)
    n = len(inputs.MU_SMALL)
    first, second = items[:n], items[n:]
    assert [i.name for i in first] == [i.name for i in second]
    a5 = [open(i.group).read() for i in (first[0], second[0])]
    assert a5[0] != a5[1]


@pytest.mark.parametrize("name", ["S6", "A5xA6", "S4modV4"])
def test_relabelling_conjugates_every_generator(tmp_path, name):
    text, sigma = inputs.relabel_group(name, random.Random(name))
    path = tmp_path / "g.grp"
    path.write_text(text)
    new, src = parse_group_file(str(path)), parse_group_file(
        str(inputs.FIXTURES / f"{name}.grp"))
    for a, b in ((new.group, src.group), (new.kernel, src.kernel)):
        if b is None:
            assert a is None
            continue
        want = sorted(inputs._conj(g.images, sigma) for g in b.generators)
        assert sorted(g.images for g in a.generators) == want


def test_hint_generators_follow_the_relabelling(tmp_path):
    items = inputs.make_items("mu-large", 2, tmp_path)
    psl34 = next(i for i in items if i.name == "PSL34_2")
    G = parse_group_file(psl34.group).group
    hint = load_hint_file(psl34.hints[0])
    assert all(G.member(g) for g in hint.generators)
    original = load_hint_file(str(inputs.FIXTURES / "PSL34_2.hint.json"))
    assert hint.generators != original.generators
    assert hint.generator_images == original.generator_images


def test_order_change_is_refused(monkeypatch):
    # a "relabelling" that is not a conjugation changes the group
    monkeypatch.setattr(inputs, "_conj",
                        lambda g, sigma: tuple(range(len(g))))
    with pytest.raises(ValueError, match="changed the order"):
        inputs.relabel_group("S5", random.Random(0))


def test_a7xa7_is_the_literal_input(tmp_path):
    items = inputs.make_items("mu-large", 5, tmp_path)
    a7 = next(i for i in items if i.name == "A7xA7")
    gens = [line for line in open(a7.group) if line.startswith("gen")]
    assert gens == ["gen (1 2 3)(8 9 10 11 12 13 14)\n",
                    "gen (1 2 3 4 5 6 7)(8 9 10)\n"]


def test_abelian_inputs_stay_small():
    rng = random.Random(0)
    for _ in range(200):
        moduli = inputs.abelian_moduli(rng)
        assert 2 <= len(moduli) <= 3
        assert math.prod(moduli) <= 64
