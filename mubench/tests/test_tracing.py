import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import mindeg.bsgs
import mindeg.socle
from run import run_batches
from mindeg.cli import run_cli
from tracing import PER_LAYER, Tracer

RUN = Path(__file__).resolve().parent.parent / "run.py"


def _traced(tmp_path, names):
    items = [i for i in inputs.make_items("mu-small", 4, tmp_path)
             if i.name in names]
    run_batches(run_cli, [items])  # warm caches, as the benchmark does
    tracer = Tracer()
    tracer.install()
    try:
        run_batches(run_cli, [items], tracer)
    finally:
        tracer.uninstall()
    return tracer


def test_uninstall_restores_every_name():
    before = (mindeg.socle.normal_closure, mindeg.bsgs.normal_closure,
              mindeg.bsgs.PermGroup._build_chain)
    tracer = Tracer()
    tracer.install()
    assert mindeg.socle.normal_closure is not before[0]
    tracer.uninstall()
    after = (mindeg.socle.normal_closure, mindeg.bsgs.normal_closure,
             mindeg.bsgs.PermGroup._build_chain)
    assert after == before


def test_self_time_nonnegative_and_sums_to_span(tmp_path):
    tracer = _traced(tmp_path, {"A5", "A5xA6", "S4"})
    spans, selfs = tracer.spans, tracer.self_times()
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        assert end >= start
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _, _, _), s, c in zip(spans, selfs, child):
        assert s >= -1e-9, name
        assert s + c == pytest.approx(end - start, abs=1e-9)
    roots = [i for i, sp in enumerate(spans) if sp[3] == -1]
    assert [spans[i][0] for i in roots] == ["cli.run_cli"] * 3
    # the self times of an item's spans add up to the item's span
    for r in roots:
        item = spans[r][4]
        total = sum(s for sp, s in zip(spans, selfs) if sp[4] == item)
        assert total == pytest.approx(spans[r][2] - spans[r][1], abs=1e-6)


def test_metrics_cover_every_per_layer_name(tmp_path):
    metrics = _traced(tmp_path, {"PGL27"}).metrics()
    assert set(metrics) == set(PER_LAYER)
    assert metrics["bsgs.chain_builds"][0] > 0
    assert metrics["socle.minimal_normal.calls"][0] > 0


def test_two_traced_runs_give_identical_counters():
    dumps = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", "mu-small", "--seed",
             "5", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        counts = {k: m["value"] for k, m in result["metrics"].items()
                  if m["unit"] == "count"}
        trace = RUN.parent.parent / ".mubench" / "trace-mu-small-5.json"
        spans = json.loads(trace.read_text())["spans"]
        dumps.append((counts, [(s["name"], s["parent"], s["item"])
                               for s in spans]))
    assert dumps[0] == dumps[1]
    assert dumps[0][0]["perm.built"] > 0
