"""Answer checker for benchmark items.

An item ends in one of three states:

* ``ok``: the expected answer (or the expected rejection);
* ``failed``: an honest failure, i.e. an unexpected nonzero exit or an
  exception out of ``run_cli``; it counts in ``fail_share``;
* ``wrong``: exit 0 with a wrong mu, dispatch rule or witness, or a
  non-Fitting-free input accepted; it counts in ``fail_share`` too, and
  the benchmark result is incorrect.
"""

from __future__ import annotations

import json

from mindeg.cli import parse_group_file
from mindeg.oracle import ORACLE_LIMIT, is_faithful_collection
from mindeg.smallgroup import list_elements

from inputs import Item

OK, FAILED, WRONG = "ok", "failed", "wrong"


def _check_mu(item: Item, rc: int, out: str, err: str) -> tuple[str, str]:
    if item.mu is None:
        if rc == 1 and "abelian" in err:
            return OK, ""
        if rc == 0:
            return WRONG, "non-Fitting-free input accepted"
        return FAILED, f"exit {rc}: {err.strip()[:200]}"
    if rc != 0:
        return FAILED, f"exit {rc}: {err.strip()[:200]}"
    cert = json.loads(out)
    if cert["total"] != item.mu:
        return WRONG, f"mu {cert['total']}, expected {item.mu}"
    rules = sorted(r["rule"] for r in cert["records"])
    if rules != sorted(item.rules):
        return WRONG, f"rules {rules}, expected {sorted(item.rules)}"
    return OK, ""


def _check_oracle(item: Item, rc: int, out: str, err: str) -> tuple[str, str]:
    if rc != 0:
        return FAILED, f"exit {rc}: {err.strip()[:200]}"
    payload = json.loads(out)
    if payload["mu"] != item.mu:
        return WRONG, f"mu {payload['mu']}, expected {item.mu}"
    if item.command == "mu-quotient":
        return OK, ""
    subs = payload["witness"]["subgroups"]
    gf = parse_group_file(item.group)
    target = gf.quotient() if gf.kernel is not None else gf.group
    C = list_elements(target, bound=ORACLE_LIMIT)
    try:
        faithful = is_faithful_collection(C, subs)
    except ValueError as exc:  # a listed "subgroup" is not one
        return WRONG, f"witness: {exc}"
    if not faithful:
        return WRONG, "witness is not a faithful collection"
    degree = sum(C.order // len(H) for H in subs)
    if degree != item.mu:
        return WRONG, f"witness indices sum to {degree}, expected {item.mu}"
    return OK, ""


def check(item: Item, rc: int, out: str, err: str) -> tuple[str, str]:
    """(state, detail) for one finished CLI call."""
    try:
        if item.command == "mu":
            return _check_mu(item, rc, out, err)
        return _check_oracle(item, rc, out, err)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return WRONG, f"unreadable output: {exc!r}"
