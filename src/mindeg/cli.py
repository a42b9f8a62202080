"""Command-line front end.

Parses group files (``degree N`` / ``gen <cycles>`` lines, optional
``kernel`` block), runs the engine, socle, oracle or pipeline commands and
emits either plain text or JSON certificates.  Exit codes: 0 on success,
2 when a case needs a hint or is out of scope (a partial certificate is
still printed), 1 on input errors, exceeded limits and a computed mu
that fails a necessary condition (``DegreeCheckFailed``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from functools import cache
from math import prod
from typing import Optional

from .bsgs import PermGroup, build_group
from .errors import HintRequired, MindegError, UnsupportedCase
from .oracle import ORACLE_LIMIT, mu_oracle
from .perm import parse_permutation
from .pipeline import load_hint_file, mu_fitting_free
from .simpleid import name_simple
from .smallgroup import QuotientGroup, list_elements
from .socle import DEFAULT_SEED, minimal_normal_under, socle_fitting_free


@dataclass
class GroupFile:
    """A parsed group file: G and, when a kernel block is present, K with
    K normal in G (verified)."""

    group: PermGroup
    kernel: Optional[PermGroup] = None

    def quotient(self) -> QuotientGroup:
        if self.kernel is None:
            raise ValueError("the group file has no kernel block")
        return QuotientGroup(self.group, self.kernel)


def parse_group_file(path: str) -> GroupFile:
    """Parse the text format: ``degree N``, ``gen <cycles>`` lines, and an
    optional ``kernel`` line opening a kernel generator block.  ``#``
    starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    degree = None
    gen_lists: list[list] = [[]]
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree"):
            if degree is not None:
                raise ValueError(f"{path}:{lineno}: duplicate degree line")
            parts = line.split()
            if (len(parts) != 2 or parts[0] != "degree"
                    or not parts[1].isdecimal() or int(parts[1]) < 1):
                raise ValueError(f"{path}:{lineno}: expected 'degree <positive"
                                 f" integer>', got {line!r}")
            degree = int(parts[1])
        elif line == "kernel":
            if degree is None:
                raise ValueError(f"{path}:{lineno}: kernel before degree")
            if len(gen_lists) > 1:
                raise ValueError(f"{path}:{lineno}: duplicate kernel line")
            gen_lists.append([])
        elif line.startswith("gen"):
            if degree is None:
                raise ValueError(f"{path}:{lineno}: gen before degree")
            gen_lists[-1].append(
                parse_permutation(line[len("gen"):].strip(), degree))
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized line {line!r}")
    if degree is None:
        raise ValueError(f"{path}: missing degree line")
    G = build_group(degree, gen_lists[0])
    K = None
    if len(gen_lists) > 1:
        K = build_group(degree, gen_lists[1])
        QuotientGroup(G, K)  # verifies K <= G and normality
    return GroupFile(group=G, kernel=K)


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_order(gf: GroupFile, args) -> int:
    n = gf.quotient().index() if gf.kernel is not None else gf.group.order()
    _emit({"order": n}, f"order {n}", args.json)
    return 0


def _cmd_socle(gf: GroupFile, args) -> int:
    dec = socle_fitting_free(gf.group, args.seed)
    # the socle is the direct product of its factors
    factor_orders = [F.order() for F in dec.factors]
    payload = {
        "socle_order": prod(factor_orders),
        "socle_generators": [str(g) for g in dec.socle.generators],
        "factor_orders": factor_orders,
        "minimal_normal_blocks": dec.minimal_normals,
        "fitting_free": True,  # socle_fitting_free raises otherwise
        "probabilistic_minimality": dec.probabilistic_minimality,
    }
    lines = [f"socle order {payload['socle_order']}",
             " ".join(["factor orders", *map(str, factor_orders)]),
             " ".join(["minimal normal blocks",
                       *(",".join(map(str, b)) for b in dec.minimal_normals)])]
    _emit(payload, "\n".join(lines), args.json)
    return 0


def _cmd_min_normal(gf: GroupFile, args) -> int:
    dec = socle_fitting_free(gf.group, args.seed)
    payload = {"minimal_normal_blocks": dec.minimal_normals,
               "factor_orders": [F.order() for F in dec.factors]}
    text = "\n".join(",".join(map(str, b)) for b in dec.minimal_normals)
    _emit(payload, text, args.json)
    return 0


def _cmd_recognize(gf: GroupFile, args) -> int:
    G = gf.group
    if G.is_trivial():
        raise ValueError("input group is not simple")
    N, _, blocks = minimal_normal_under(G, G, args.seed)
    # one minimal normal subgroup, found simple, that is all of G
    if N.order() != G.order() or blocks != [[N]]:
        raise ValueError("input group is not simple")
    name = name_simple(G)
    _emit({"name": str(name), "family": name.family,
           "params": list(name.params)}, str(name), args.json)
    return 0


def _cmd_mu(gf: GroupFile, args) -> int:
    hints = [load_hint_file(p) for p in args.hint]
    try:
        cert = mu_fitting_free(gf.group, hints, args.seed)
    except (HintRequired, UnsupportedCase) as exc:
        print(exc.certificate.to_json())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(cert.to_json())
    else:
        print(f"mu {cert.total}")
    return 0


def _cmd_mu_oracle(gf: GroupFile, args) -> int:
    target = gf.quotient() if gf.kernel is not None else gf.group
    C = list_elements(target, bound=args.limit)
    mu, wit = mu_oracle(C, limit=args.limit)
    payload = {"mu": mu, "witness": asdict(wit)}
    lines = [f"mu {mu}"]
    for H in wit.subgroups:
        lines.append("witness subgroup " + ",".join(map(str, H)))
    _emit(payload, "\n".join(lines), args.json)
    return 0


def _cmd_mu_quotient(gf: GroupFile, args) -> int:
    C = list_elements(gf.quotient(), bound=args.limit)
    mu, _ = mu_oracle(C, limit=args.limit)
    _emit({"mu": mu}, f"mu {mu}", args.json)
    return 0


# the commands that read a kernel block as G/K; the others work on G
# alone, so they reject a kernel file rather than silently ignore K
_QUOTIENT_COMMANDS = {"order", "mu-oracle", "mu-quotient"}

_COMMANDS = {
    "order": _cmd_order,
    "socle": _cmd_socle,
    "min-normal": _cmd_min_normal,
    "recognize": _cmd_recognize,
    "mu": _cmd_mu,
    "mu-oracle": _cmd_mu_oracle,
    "mu-quotient": _cmd_mu_quotient,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="mindeg",
        description="Minimal faithful permutation degree of Fitting-free "
                    "groups.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("groupfile", help="group file (degree/gen lines)")
    parser.add_argument("--hint", action="append", default=[],
                        metavar="FILE", help="recognition hint JSON "
                        "(repeatable; used by the mu command)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of plain text")
    parser.add_argument("--limit", type=int, default=ORACLE_LIMIT,
                        metavar="N", help="small-group/oracle order bound")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        metavar="N", help="seed for random-element sampling")
    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        gf = parse_group_file(args.groupfile)
        if gf.kernel is not None and args.command not in _QUOTIENT_COMMANDS:
            raise ValueError(f"{args.command} does not support a kernel "
                             "block; use mu-oracle or mu-quotient for G/K")
        return _COMMANDS[args.command](gf, args)
    except (OSError, ValueError, MindegError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
