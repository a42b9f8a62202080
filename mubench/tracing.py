"""Spans and counters around calls into mindeg's modules.

The tracer patches every module-level name that refers to a traced
function (``mindeg.socle.normal_closure`` as well as
``mindeg.bsgs.normal_closure``), and the traced methods on their classes,
so no file under ``src/`` changes.  Spans (name, start, end, parent, item)
and counters stay in memory until ``to_json``.  Hot functions get a bare
call counter and no span.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, span name, result-size counter)
SPANS = [
    ("mindeg.cli", "parse_group_file", "cli.parse", None),
    ("mindeg.pipeline", "load_hint_file", "cli.hint_load", None),
    ("mindeg.pipeline", "mu_fitting_free", "pipeline.mu", None),
    ("mindeg.pipeline", "induced_aut_group", "pipeline.induced_aut", None),
    ("mindeg.pipeline", "dispatch_table", "pipeline.dispatch", None),
    ("mindeg.socle", "socle_fitting_free", "socle.decompose", None),
    ("mindeg.socle", "minimal_normal_under", "socle.minimal_normal", None),
    ("mindeg.socle", "simple_factors", "socle.simple_factors", None),
    ("mindeg.socle", "normalizer_of_factor", "socle.normalizer_of_factor",
     None),
    ("mindeg.bsgs", "PermGroup._build_chain", "bsgs.chain_build", None),
    ("mindeg.bsgs", "normal_closure", "bsgs.normal_closure", None),
    ("mindeg.bsgs", "centralizer_of_normal", "bsgs.centralizer", None),
    ("mindeg.bsgs", "preimage_of_stabilizer", "bsgs.preimage_stab", None),
    ("mindeg.simpleid", "name_simple", "simpleid.name", None),
    ("mindeg.simpleid", "_order_table", "simpleid.table_build", None),
    ("mindeg.autlift", "lift_psl_aut", "autlift.lift", None),
    ("mindeg.autlift", "lift_omega_aut", "autlift.lift", None),
    ("mindeg.autlift", "classify_aut", "autlift.classify", None),
    ("mindeg.fflinalg", "solve_commutation", "fflinalg.solve", None),
    ("mindeg.smallgroup", "isomorphism_search", "smallgroup.iso_search",
     None),
    ("mindeg.smallgroup", "list_elements", "smallgroup.list_elements", None),
    ("mindeg.smallgroup", "all_subgroups", "smallgroup.all_subgroups",
     "smallgroup.subgroups"),
    ("mindeg.oracle", "mu_oracle", "oracle.mu_oracle", None),
    ("mindeg.oracle", "_general_candidates", "oracle.candidates",
     "oracle.classes"),
    ("mindeg.oracle", "_abelian_candidates", "oracle.candidates",
     "oracle.classes"),
    ("mindeg.oracle", "_prune_dominated", "oracle.prune", "oracle.kept"),
]
COUNTS = [
    ("mindeg.perm", "compose", "perm.compose.calls"),
    ("mindeg.perm", "inverse", "perm.inverse.calls"),
    ("mindeg.perm", "Permutation.__post_init__", "perm.built"),
    ("mindeg.bsgs", "PermGroup._sift", "bsgs.sifts"),
    ("mindeg.bsgs", "PermGroup.member", "bsgs.membership_tests"),
    ("mindeg.bsgs", "PermGroup.contains", "bsgs.membership_tests"),
    ("mindeg.fflinalg", "multiply", "fflinalg.matmul.calls"),
    ("mindeg.smallgroup", "_join", "smallgroup.joins"),
]

# per-layer metric -> (unit, source); sources: ("count", counter),
# ("calls", span), ("total", span), ("self", span) or ("yield",)
PER_LAYER = {
    "perm.compose.calls": ("count", ("count", "perm.compose.calls")),
    "perm.inverse.calls": ("count", ("count", "perm.inverse.calls")),
    "perm.built": ("count", ("count", "perm.built")),
    "bsgs.chain_builds": ("count", ("calls", "bsgs.chain_build")),
    "bsgs.chain_build_s": ("s", ("total", "bsgs.chain_build")),
    "bsgs.sifts": ("count", ("count", "bsgs.sifts")),
    "bsgs.membership_tests": ("count", ("count", "bsgs.membership_tests")),
    "bsgs.normal_closure.calls": ("count", ("calls", "bsgs.normal_closure")),
    "bsgs.normal_closure_s": ("s", ("total", "bsgs.normal_closure")),
    "bsgs.centralizer.calls": ("count", ("calls", "bsgs.centralizer")),
    "bsgs.centralizer_s": ("s", ("total", "bsgs.centralizer")),
    "bsgs.preimage_stab_s": ("s", ("total", "bsgs.preimage_stab")),
    "socle.decompose_s": ("s", ("total", "socle.decompose")),
    "socle.minimal_normal.calls": ("count",
                                   ("calls", "socle.minimal_normal")),
    "socle.minimal_normal_s": ("s", ("total", "socle.minimal_normal")),
    "socle.simple_factors.calls": ("count",
                                   ("calls", "socle.simple_factors")),
    "socle.simple_factors_s": ("s", ("total", "socle.simple_factors")),
    "socle.normalizer_of_factor_s": ("s", ("total",
                                           "socle.normalizer_of_factor")),
    "simpleid.name.calls": ("count", ("calls", "simpleid.name")),
    "simpleid.name_s": ("s", ("total", "simpleid.name")),
    "simpleid.table_build_s": ("s", ("total", "simpleid.table_build")),
    "pipeline.mu_s": ("s", ("total", "pipeline.mu")),
    "pipeline.induced_aut_s": ("s", ("self", "pipeline.induced_aut")),
    "pipeline.dispatch_s": ("s", ("total", "pipeline.dispatch")),
    "cli.parse_s": ("s", ("total", "cli.parse")),
    "cli.hint_load_s": ("s", ("total", "cli.hint_load")),
    "autlift.lift.calls": ("count", ("calls", "autlift.lift")),
    "autlift.lift_s": ("s", ("total", "autlift.lift")),
    "autlift.classify_s": ("s", ("total", "autlift.classify")),
    "fflinalg.solve_s": ("s", ("total", "fflinalg.solve")),
    "fflinalg.matmul.calls": ("count", ("count", "fflinalg.matmul.calls")),
    "smallgroup.iso_search_s": ("s", ("total", "smallgroup.iso_search")),
    "smallgroup.list_elements_s": ("s", ("total",
                                         "smallgroup.list_elements")),
    "smallgroup.all_subgroups_s": ("s", ("total",
                                         "smallgroup.all_subgroups")),
    "smallgroup.subgroups": ("count", ("count", "smallgroup.subgroups")),
    "smallgroup.joins": ("count", ("count", "smallgroup.joins")),
    "oracle.mu_oracle_s": ("s", ("total", "oracle.mu_oracle")),
    "oracle.candidates_s": ("s", ("total", "oracle.candidates")),
    "oracle.classes": ("count", ("count", "oracle.classes")),
    "oracle.class_yield": ("ratio", ("yield",)),
    "oracle.kept": ("count", ("count", "oracle.kept")),
    "oracle.search_s": ("s", ("self", "oracle.mu_oracle")),
}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory spans and counters; ``install`` patches, ``uninstall``
    restores every patched name."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, item, outermost]
        self.spans: list[list] = []
        self.counts = {name: 0 for _, _, name in COUNTS}
        for _, _, _, size in SPANS:
            if size:
                self.counts[size] = 0
        self.item = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> None:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.item, depth == 0])

    def close(self) -> None:
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._depth[span[0]] -= 1

    # -- patching -----------------------------------------------------------

    def _span_wrapper(self, fn, name, size):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if size:
                counts[size] += len(result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module: str, attr: str, wrap) -> None:
        try:
            owner, name, original = _resolve(module, attr)
        except (KeyError, AttributeError):
            # renamed or removed in the program: its metrics read 0
            print(f"tracing: no {module}.{attr}; not traced", file=sys.stderr)
            return
        wrapped = wrap(original)
        if owner is sys.modules[module]:
            # every mindeg module that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("mindeg."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        else:
            self._patched.append((owner, name, original))
            setattr(owner, name, wrapped)

    def install(self) -> None:
        for module, attr, name, size in SPANS:
            self._patch(module, attr,
                        lambda fn, n=name, s=size: self._span_wrapper(fn, n, s))
        for module, attr, name in COUNTS:
            self._patch(module, attr,
                        lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of PER_LAYER as (value, unit)."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        for (name, start, end, _, _, outer), s in zip(self.spans,
                                                      self.self_times()):
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + s
            if outer:  # nested same-name spans are inside this one
                total[name] = total.get(name, 0.0) + end - start
        out = {}
        for metric, (unit, src) in PER_LAYER.items():
            if src[0] == "count":
                value = self.counts[src[1]]
            elif src[0] == "calls":
                value = calls.get(src[1], 0)
            elif src[0] == "total":
                value = total.get(src[1], 0.0)
            elif src[0] == "self":
                value = self_t.get(src[1], 0.0)
            else:
                subs = self.counts["smallgroup.subgroups"]
                value = self.counts["oracle.classes"] / subs if subs else 0.0
            out[metric] = (value, unit)
        return out

    def to_json(self) -> dict:
        selfs = self.self_times()
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p,
                       "item": it, "self": st}
                      for (n, s, e, p, it, _), st in zip(self.spans, selfs)],
            "counters": dict(self.counts),
        }
