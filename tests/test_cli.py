import json
import os
import random
import subprocess
import sys

import pytest

from mindeg.bsgs import build_group
from mindeg.cli import parse_group_file, run_cli
from mindeg.oracle import ORACLE_LIMIT, is_faithful_collection
from mindeg.perm import Permutation
from mindeg.smallgroup import list_elements

from .groups import A6_PSL28, A7_A7, P, alt, conjugate, m11, m22

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "mindeg", "fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


PINS = os.path.join(os.path.dirname(__file__), "data", "cli_pins.json")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_group(path, G):
    path.write_text(f"degree {G.degree}\n"
                    + "".join(f"gen {g}\n" for g in G.generators))
    return str(path)


# --- group file parsing --------------------------------------------------------


def test_parse_fixture_files():
    for name, order in (("A5.grp", 60), ("PGL27.grp", 336),
                        ("Z6.grp", 6), ("M12.grp", 95040)):
        gf = parse_group_file(fx(name))
        assert gf.group.order() == order
        assert gf.kernel is None


def test_parse_kernel_block():
    gf = parse_group_file(fx("S4modV4.grp"))
    assert gf.group.order() == 24
    assert gf.kernel.order() == 4
    assert gf.quotient().index() == 6


def test_parse_rejects_malformed(tmp_path):
    cases = [
        "gen (1 2)\n",                       # gen before degree
        "degree 4\ndegree 4\n",              # duplicate degree
        "degree 4\nwhat\n",                  # unknown line
        "degree 4\ngen (1 9)\n",             # point out of range
        "degree 4\nkernel\nkernel\n",        # duplicate kernel
        "# only a comment\n",                # missing degree
        "degree 4\ngen (1 2 3)\nkernel\ngen (1 4)\n",  # K not in G
        # K <= G = S4 but not normal
        "degree 4\ngen (1 2 3 4)\ngen (1 2)\nkernel\ngen (1 2)\n",
        "degree 0\n",                        # degree not positive
        "degree -2\n",
        "degree 4 5\n",                      # extra token
        "degree\n",                          # no degree value
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.grp"
        p.write_text(text)
        with pytest.raises(ValueError):
            parse_group_file(str(p))


# --- subcommands ---------------------------------------------------------------


def test_order_and_quotient_order(capsys):
    code, out, _ = run(capsys, "order", fx("A6.grp"))
    assert code == 0 and out.strip() == "order 360"
    code, out, _ = run(capsys, "order", fx("S4modV4.grp"))
    assert code == 0 and out.strip() == "order 6"


def test_recognize(capsys):
    code, out, _ = run(capsys, "recognize", fx("PSL27.grp"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "PSL(2,7)"
    assert data["family"] == "PSL" and data["params"] == [2, 7]
    for name, expected in (("M12", "M12"), ("PSL34", "PSL(3,4)")):
        code, out, err = run(capsys, "recognize", fx(name + ".grp"))
        assert code == 0, err
        assert out.strip() == expected


def test_recognize_rejects_nonsimple(tmp_path, capsys):
    # A5wrZ2 and A7 x A7 are products the orbit proof splits; a split is
    # not a proof of simplicity
    path = tmp_path / "A7xA7.grp"
    path.write_text("degree 14\n" + "".join(f"gen {c}\n" for c in A7_A7))
    for file in [fx(name + ".grp") for name in ("S4", "S5", "D8", "Z6",
                                                "A5wrZ2")] + [str(path)]:
        code, out, err = run(capsys, "recognize", file)
        assert code == 1 and out == ""
        assert "input group is not simple" in err
    # Z7 is simple, but abelian: no table entry for its order
    path = tmp_path / "Z7.grp"
    path.write_text("degree 7\ngen (1 2 3 4 5 6 7)\n")
    code, out, err = run(capsys, "recognize", str(path))
    assert code == 1 and out == ""
    assert "order 7 " in err


def test_recognize_rejects_a6_x_psl28_on_random_generators(tmp_path,
                                                          capsys):
    # |A6 x PSL(2,8)| = |Alt(9)|.  A random element of the product rarely
    # has a trivial component, so the normal closures of random generators
    # and of uniform elements are almost always whole; the sweep's
    # prime-order powers split it.
    G = build_group(15, [P(c, 15) for c in A6_PSL28])
    rng = random.Random(7)
    for i in range(10):
        gens = []
        while build_group(15, gens).order() != G.order():
            gens = [G.random_element(rng) for _ in range(2)]
        images = list(range(15))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        path = tmp_path / f"G{i}.grp"
        path.write_text("degree 15\n" + "".join(
            f"gen {conjugate(g, sigma)}\n" for g in gens))
        code, out, err = run(capsys, "recognize", str(path))
        assert code == 1 and out == "", out
        assert "input group is not simple" in err


def test_socle_and_min_normal(capsys):
    code, out, _ = run(capsys, "socle", fx("A5wrZ2.grp"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["socle_order"] == 3600
    assert data["factor_orders"] == [60, 60]
    assert data["minimal_normal_blocks"] == [[0, 1]]
    assert data["fitting_free"]

    code, out, _ = run(capsys, "min-normal", fx("A5xA6.grp"))
    assert code == 0
    assert out.strip().splitlines() == ["0", "1"]


def test_socle_text_lines_end_without_a_space(tmp_path, capsys):
    # with no factors, each label ends its line, with no space after it
    path = tmp_path / "trivial.grp"
    path.write_text("degree 3\n")
    for file, lines in ((str(path), ["socle order 1", "factor orders",
                                     "minimal normal blocks"]),
                        (fx("A5.grp"), ["socle order 60", "factor orders 60",
                                        "minimal normal blocks 0"])):
        code, out, _ = run(capsys, "socle", file)
        assert code == 0
        assert out.splitlines() == lines


def test_mu_text_and_json(capsys):
    code, out, _ = run(capsys, "mu", fx("PGL27.grp"))
    assert code == 0 and out.strip() == "mu 8"
    code, out, _ = run(capsys, "mu", fx("PGL27.grp"), "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["total"] == 8
    assert cert["records"][0]["rule"] == "row 2"


def test_mu_s6_x_a5_lists_a_quotient_for_the_alt6_row(tmp_path, capsys):
    # C_G(S1) = A5 for the Alt(6) factor, so A = N_G(S1)/C_G(S1) is a
    # quotient of a group on 11 points, of order 720; an element of N_G(S1)
    # inducing an automorphism of order 6 shows that A is Sym(6), and the
    # quotient is listed only when no such witness is drawn
    path = tmp_path / "S6xA5.grp"
    path.write_text("degree 11\ngen (1 2)\ngen (1 2 3 4 5 6)\n"
                    "gen (7 8 9)\ngen (9 10 11)\n")
    code, out, _ = run(capsys, "mu", str(path), "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["total"] == 11
    assert sorted(r["rule"] for r in cert["records"]) == [
        "default", "default (A embeds in Sym(6))"]
    assert [r["order_A"] for r in cert["records"]
            if r["factor_name"] == "Alt(6)"] == [720]


def test_mu_oracle_matches_mu(capsys):
    for name in ("A5.grp", "PSL27.grp"):
        code, out, _ = run(capsys, "mu", fx(name))
        mu_pipeline = int(out.split()[1])
        code2, out2, _ = run(capsys, "mu-oracle", fx(name), "--json")
        assert code == code2 == 0
        assert json.loads(out2)["mu"] == mu_pipeline


def test_mu_of_the_trivial_group_matches_the_oracle(tmp_path, capsys):
    path = tmp_path / "trivial.grp"
    path.write_text("degree 3\n")
    code, out, err = run(capsys, "mu", str(path))
    assert (code, out, err) == (0, "mu 0\n", "")
    code, out, _ = run(capsys, "mu", str(path), "--json")
    cert = json.loads(out)
    assert code == 0
    assert cert["total"] == 0 and cert["records"] == []
    code, out, _ = run(capsys, "mu-oracle", str(path), "--json")
    assert code == 0 and json.loads(out)["mu"] == cert["total"]


def test_mu_oracle_abelian_example(capsys):
    code, out, _ = run(capsys, "mu-oracle", fx("Z6.grp"), "--limit", "100")
    assert code == 0
    assert out.splitlines()[0] == "mu 5"


def test_mu_quotient(capsys):
    code, out, _ = run(capsys, "mu-quotient", fx("S4modV4.grp"))
    assert code == 0 and out.strip() == "mu 3"


def s5_x_a5_mod_a5(tmp_path):
    # S5 on 1..5 times A5 on 6..10, over the A5 factor: the quotient is S5
    path = tmp_path / "S5xA5modA5.grp"
    path.write_text("degree 10\ngen (1 2)\ngen (1 2 3 4 5)\ngen (6 7 8)\n"
                    "gen (8 9 10)\nkernel\ngen (6 7 8)\ngen (8 9 10)\n")
    return path


def test_mu_quotient_of_s5_x_a5_by_a5(tmp_path, capsys):
    path = s5_x_a5_mod_a5(tmp_path)
    code, out, _ = run(capsys, "mu-quotient", str(path))
    assert code == 0 and out.strip() == "mu 5"
    code, out, _ = run(capsys, "mu-oracle", str(path), "--json")
    assert code == 0
    result = json.loads(out)
    assert result["mu"] == 5
    C = list_elements(parse_group_file(str(path)).quotient(),
                      bound=ORACLE_LIMIT)
    assert is_faithful_collection(C, result["witness"]["subgroups"])


@pytest.mark.parametrize("command", ["mu", "socle", "min-normal",
                                     "recognize"])
def test_commands_on_g_reject_a_kernel_file(tmp_path, capsys, command):
    # these commands work on G, not G/K: mu would print 10 for a quotient
    # whose mu is 5, so a kernel block is an input error
    code, out, err = run(capsys, command, str(s5_x_a5_mod_a5(tmp_path)))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {command} ") and "kernel" in err


# --- exit codes ----------------------------------------------------------------


def test_exit_1_on_missing_file(capsys):
    code, out, err = run(capsys, "order", fx("nope.grp"))
    assert code == 1 and "error" in err


def test_exit_1_on_not_fitting_free(capsys):
    code, out, err = run(capsys, "mu", fx("S4.grp"))
    assert code == 1 and "abelian" in err


def test_exit_1_on_limit_exceeded(capsys):
    code, out, err = run(capsys, "mu-oracle", fx("A6.grp"), "--limit", "100")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("wrong,message", [
    (6, "exceeds the 5 points that G moves"),
    (4, "|G| = 60 does not divide 4!"),
], ids=["above-moved-points", "order-not-dividing"])
def test_exit_1_when_mu_fails_a_necessary_condition(monkeypatch, capsys,
                                                    wrong, message):
    import mindeg.pipeline
    monkeypatch.setattr(mindeg.pipeline, "dispatch_table",
                        lambda name, data: (wrong, "default"))
    for argv in (["mu", fx("A5.grp")], ["mu", fx("A5.grp"), "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err


def test_exit_2_with_partial_certificate(capsys):
    code, out, err = run(capsys, "mu", fx("PSL34_2.grp"))
    assert code == 2
    partial = json.loads(out)
    assert partial["flags"]["unsupported-case"]
    assert partial["records"][0]["error"]
    assert "hint" in err


def test_exit_2_when_the_factor_is_not_in_the_table(tmp_path, capsys):
    # M22 is simple, but M11, M12 and O'N are the only sporadic groups named
    code, out, err = run(capsys, "mu", write_group(tmp_path / "M22.grp",
                                                   m22()))
    assert code == 2
    partial = json.loads(out)
    assert partial["flags"]["unsupported-case"]
    assert partial["factor_orders"] == [443520]
    message = "order 443520 at degree 24 is the order of no named simple group"
    assert partial["records"][0]["error"] == message
    assert message in err


@pytest.mark.parametrize("make,name,mu", [
    (lambda: alt(17), "Alt(17)", 17), (m11, "M11", 11),
], ids=["Alt17", "M11"])
def test_mu_and_recognize_name_factors_of_any_order(tmp_path, capsys, make,
                                                    name, mu):
    path = write_group(tmp_path / "G.grp", make())
    code, out, err = run(capsys, "mu", path, "--json")
    assert code == 0, err
    cert = json.loads(out)
    assert cert["total"] == mu
    assert [(r["factor_name"], r["rule"]) for r in cert["records"]] == [
        (name, "default")]
    code, out, err = run(capsys, "recognize", path)
    assert code == 0 and out.strip() == name, err


def test_hinted_graph_extension(capsys):
    code, out, _ = run(capsys, "mu", fx("PSL34_2.grp"),
                       "--hint", fx("PSL34_2.hint.json"))
    assert code == 0 and out.strip() == "mu 42"


def test_exit_1_on_a_hint_whose_images_are_swapped(tmp_path, capsys):
    # the swapped images still generate the standard copy, but the map
    # from the hint generators is not a homomorphism
    with open(fx("PSL34_2.hint.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    images = data["generator_images"]
    images[0], images[1] = images[1], images[0]
    path = tmp_path / "hint.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mu", fx("PSL34_2.grp"), "--hint", str(path))
    assert code == 1 and out == ""
    assert "hint images do not define an isomorphism from the factor" in err


def _bad_hint(tmp_path, case):
    """(group file, hint file, message) for a hint that is no isomorphism
    of the factor onto the standard copy."""
    if case == "fano":
        # GL(3,2) on the 7 points of the Fano plane (point i is the vector
        # of F_2^3 whose binary digits spell i) and a hint that claims
        # SL(3,4), its images being the same 0/1 matrices: every order
        # matches, but the images generate a proper subgroup of the copy
        group = tmp_path / "fano.grp"
        group.write_text("degree 7\ngen (2 6)(3 7)\ngen (1 4 2)(3 5 6)\n")
        data = {"factor_index": 0, "family": "SL", "d": 3, "q": 4,
                "field_convention": "lex-least-irreducible", "degree": 7,
                "generators": [[0, 5, 6, 3, 4, 1, 2], [3, 0, 4, 1, 5, 2, 6]],
                "generator_images": [[1, 1, 0, 0, 1, 0, 0, 0, 1],
                                     [0, 0, 1, 1, 0, 0, 0, 1, 0]]}
        message = "hint images do not generate the standard copy"
    else:
        group = fx("PSL34_2.grp")
        with open(fx("PSL34_2.hint.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        if case == "identity-images":  # psi is not injective
            data["generator_images"] = [[1, 0, 0, 0, 1, 0, 0, 0, 1]
                                        for _ in data["generator_images"]]
            message = "hint images do not define an isomorphism"
        else:  # the first 12 generators generate a subgroup of order 960
            data["generators"] = data["generators"][:12]
            data["generator_images"] = data["generator_images"][:12]
            message = "hint generators do not generate the factor"
    path = tmp_path / "hint.json"
    path.write_text(json.dumps(data))
    return str(group), str(path), message


@pytest.mark.parametrize("case", ["fano", "identity-images",
                                  "proper-subgroup"])
def test_exit_1_on_a_hint_that_is_no_isomorphism(tmp_path, capsys, case):
    group, hint, message = _bad_hint(tmp_path, case)
    code, out, err = run(capsys, "mu", group, "--hint", hint)
    assert code == 1 and out == ""
    assert message in err
    # no refusal is an assert, so python -O refuses the same way
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mindeg.cli", "mu", group, "--hint",
         hint], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 1 and proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("change", ["degree", "factor_index"])
def test_exit_1_on_a_hint_that_names_nothing(tmp_path, capsys, change):
    with open(fx("PSL34_2.hint.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if change == "degree":
        del data["degree"]  # generators without a degree
    else:
        data["factor_index"] = 5  # PSL34_2 has one socle factor
    path = tmp_path / "hint.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mu", fx("PSL34_2.grp"), "--hint", str(path))
    assert code == 1 and out == ""
    if change == "degree":
        assert "'degree'" in err
    else:
        assert "factor_index 5" in err and "1 simple factor" in err


def test_exit_1_on_a_hint_of_another_degree(tmp_path, capsys):
    with open(fx("PSL34_2.hint.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["degree"] += 1
    data["generators"] = [g + [len(g)] for g in data["generators"]]
    path = tmp_path / "hint.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mu", fx("PSL34_2.grp"), "--hint", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: hint degree mismatch: the hint for factor_index 0 "
                   "has degree 43, G has degree 42\n")


def test_exit_1_on_two_hints_for_one_block(capsys):
    hint = fx("PSL34_2.hint.json")
    code, out, err = run(capsys, "mu", fx("PSL34_2.grp"),
                         "--hint", hint, "--hint", hint)
    assert (code, out) == (1, "")
    assert err == ("error: 2 hints name minimal normal block 0 (factors 0): "
                   "factor_index 0, 0; give one hint per block\n")


# --- output stability ----------------------------------------------------------


def test_json_round_trips(capsys):
    for cmd, name in (("mu", "PGL27.grp"), ("socle", "A5wrZ2.grp"),
                      ("mu-oracle", "Z6.grp"), ("order", "A5.grp")):
        code, out, _ = run(capsys, cmd, fx(name), "--json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == \
            out.strip()


def test_same_seed_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "mu", fx("A5xA6.grp"), "--json",
                           "--seed", "99")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# every fixture that mu accepts without a hint, and PSL34_2 with its hint
PINNED = ["A5", "A5wrZ2", "A5xA6", "A6", "AutA6", "M12", "PGL27",
          "PGammaL28", "PSL211", "PSL27", "PSL28", "PSL34", "PSL34_2", "S5",
          "S6"]
HINTED = {"PSL34_2"}


@pytest.mark.parametrize("command", ["mu", "socle"])
@pytest.mark.parametrize("name", PINNED)
def test_json_output_is_pinned(capsys, name, command):
    # same-seed output stays byte-identical when the engine changes
    with open(PINS, encoding="utf-8") as fh:
        expected = json.load(fh)[name][command]
    hint = (["--hint", fx(name + ".hint.json")]
            if command == "mu" and name in HINTED else [])
    code, out, err = run(capsys, command, fx(name + ".grp"), "--json", *hint)
    assert code == 0, err
    assert out == expected


# witness element indices pin the element numbering and the candidate choice
ORACLE_PINNED = [("mu-oracle", name)
                 for name in ("A5", "S5", "PSL27", "Z6", "S4modV4", "A6",
                              "PGL27", "PSL28", "PSL211", "S6", "PGammaL28",
                              "AutA6")]
ORACLE_PINNED.append(("mu-quotient", "S4modV4"))


@pytest.mark.parametrize("command,name", ORACLE_PINNED)
def test_oracle_json_output_is_pinned(capsys, command, name):
    with open(PINS, encoding="utf-8") as fh:
        expected = json.load(fh)[name][command]
    code, out, err = run(capsys, command, fx(name + ".grp"), "--json")
    assert code == 0, err
    assert out == expected


# literal products of two simple groups on disjoint supports, split by
# their orbits
PRODUCTS = {"A6xPSL28": (A6_PSL28, 15), "A7xA7": (A7_A7, 14)}


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("command", ["mu", "socle"])
@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_json_output_is_pinned(tmp_path, capsys, name, command,
                                       seed):
    cycles, degree = PRODUCTS[name]
    path = tmp_path / f"{name}.grp"
    path.write_text(f"degree {degree}\n" + "".join(f"gen {c}\n"
                                                  for c in cycles))
    key, extra = (name, []) if seed is None else \
        (f"{name} --seed {seed}", ["--seed", str(seed)])
    with open(PINS, encoding="utf-8") as fh:
        expected = json.load(fh)[key][command]
    code, out, err = run(capsys, command, str(path), "--json", *extra)
    assert code == 0, err
    assert out == expected


# --- hash-seed independence ------------------------------------------------------


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # bytes hash differently in every process, tuples of ints do not: no
    # output may follow the iteration order of a set or dict keyed by them
    a6_psl28 = tmp_path / "A6xPSL28.grp"
    a6_psl28.write_text("degree 15\n" + "".join(f"gen {g}\n"
                                                for g in A6_PSL28))
    runs = [["mu", "--json", "--hint", fx("PSL34_2.hint.json"),
             fx("PSL34_2.grp")],
            ["mu", "--json", fx("A5xA6.grp")],
            ["socle", "--json", str(a6_psl28)]]
    outputs = []
    for seed in ("0", "1"):
        outputs.append([subprocess.run(
            [sys.executable, "-m", "mindeg.cli", *argv], capture_output=True,
            timeout=120, env={**os.environ, "PYTHONPATH": SRC,
                              "PYTHONHASHSEED": seed}).stdout
            for argv in runs])
    assert all(outputs[0]) and outputs[0] == outputs[1]


def test_the_parser_is_reused_without_carrying_arguments_over(capsys):
    hinted = ["mu", "--json", "--hint", fx("PSL34_2.hint.json"),
              fx("PSL34_2.grp")]
    assert run(capsys, *hinted)[0] == 0
    # the hint list of the first call must not leak into the second
    code, out, _ = run(capsys, "mu", "--json", fx("A5.grp"))
    assert code == 0 and json.loads(out)["flags"]["hint-used"] is False
    assert run(capsys, *hinted)[0] == 0
