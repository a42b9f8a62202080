"""mindeg benchmark: seeded inputs through ``mindeg.cli.run_cli``.

    python3 mubench/run.py --workload mu-small --seed 1 --seconds 26 --trace 0

One client in one process and thread runs the workload's items in a
closed loop (each item starts when the previous one has finished), checks
every answer, and prints its metrics; the last line of standard output is
one JSON object.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` one untraced and one traced batch give the per-layer
metrics and the tracing overhead, and the spans are written to
``.mubench/trace-<workload>-<seed>.json``.  Exit code 1 when an answer is
wrong, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".mubench"

# Nominal batch length in seconds on a 2-CPU x86 box at the commit that
# introduced the benchmark.  A run makes round(--seconds / nominal) batches
# (at least one), so the work per run is fixed by --seconds and stays the
# same when the program gets faster.  At --seconds 26 that is 5 batches of
# mu-small, 5 of oracle and 1 of mu-large.
NOMINAL_BATCH_S = {"mu-small": 5.5, "mu-large": 50.0, "oracle": 5.0}
SETUP_REPEATS = 3

# Child interpreter for setup_s: library import plus the first naming
# call (which builds the simple-group order table); prints the time since
# the parent launched it.
_SETUP_CODE = """\
import sys, time, contextlib, io
sys.path.insert(0, sys.argv[1])
from mindeg.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = run_cli(["recognize", sys.argv[2]])
print(time.monotonic_ns() - int(sys.argv[3]))
sys.exit(rc)
"""


def _fail(msg: str) -> None:
    print(f"mubench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_BATCH_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(setup_file: str, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds from launching a fresh interpreter to library ready."""
    times = []
    for _ in range(repeats):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), setup_file,
             str(start)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"setup child failed: {proc.stderr.strip()[-500:]}")
        times.append(int(proc.stdout.strip()) / 1e9)
    return statistics.median(times)


def run_item(run_cli, item) -> tuple[float, object, str, str]:
    """(seconds, exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # garbage left by earlier items is not this item's cost
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli(item.argv())
        if rc == 0:  # the timed span ends at parsed output
            json.loads(out.getvalue())
    except Exception:  # a bare exception is a failed item, not a crash
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_batches(run_cli, batches, tracer=None):
    """Run batches in a closed loop; returns (batch walls, results)."""
    walls, results = [], []
    for batch in batches:
        start = time.perf_counter()
        for i, item in enumerate(batch):
            if tracer is not None:
                tracer.item = f"{len(walls)}/{i}/{item.name}"
                tracer.open("cli.run_cli")
            try:
                results.append((item, *run_item(run_cli, item)))
            finally:
                if tracer is not None:
                    tracer.close()
        walls.append(time.perf_counter() - start)
    return walls, results


def judge(results) -> tuple[int, list[str]]:
    """(failed count, wrong-answer messages); prints one line per item.

    A wrong answer counts as failed too, and also makes the result
    incorrect."""
    from check import FAILED, WRONG, check
    failed, wrong = 0, []
    for item, seconds, rc, out, err in results:
        state, detail = check(item, rc, out, err)
        print(f"item {item.name} {item.command} {seconds:.4f} s {state}"
              + (f": {detail}" if detail else ""))
        if state in (FAILED, WRONG):
            failed += 1
        if state == WRONG:
            wrong.append(f"{item.name} ({item.group}): {detail}")
    return failed, wrong


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mindeg" / "cli.py").is_file():
        _fail(f"no mindeg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from mindeg.cli import run_cli
    if not Path(sys.modules["mindeg.cli"].__file__).resolve().is_relative_to(
            SRC.resolve()):
        _fail("mindeg was not imported from this checkout")
    import inputs

    nbatches = max(1, round(args.seconds / NOMINAL_BATCH_S[args.workload]))
    if args.trace:
        nbatches = 1
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    gen = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), args.workload,
         str(args.seed), str(work), str(nbatches)],
        capture_output=True, text=True, timeout=170)
    if gen.returncode != 0:
        _fail(f"input generation failed: {gen.stderr.strip()[-1000:]}")
    items, setup_file = inputs.read_manifest(work / "manifest.json")
    per = len(items) // nbatches
    batches = [items[k * per:(k + 1) * per] for k in range(nbatches)]

    setup_s = None if args.trace else measure_setup(setup_file)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.item = "setup"
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):  # library ready
        run_cli(["recognize", setup_file])
    if tracer is not None:
        tracer.uninstall()
        untraced, _ = run_batches(run_cli, batches)
        tracer.install()
        walls, results = run_batches(run_cli, batches, tracer)
        tracer.uninstall()
    else:
        walls, results = run_batches(run_cli, batches)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, wrong = judge(results)
    for msg in wrong:
        print(f"WRONG: {msg}")
    attempted = len(results)
    times = sorted(r[1] for r in results)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    above = sum(t > p90 for t in times)
    print(f"workload {args.workload} seed {args.seed}: {len(batches)} "
          f"batch(es) of {per} items, closed loop, 1 client")
    print(f"correct {not wrong}")
    print(f"fail_share {failed / attempted:.4f} ratio ({failed}/{attempted})")
    print(f"item_s.p90 over {len(times)} samples, {above} above it")

    if args.trace:
        traced = statistics.median(walls)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {
            "value": traced - statistics.median(untraced), "unit": "s"}
        dump = tracer.to_json()
        dump.update(workload=args.workload, seed=args.seed)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"spans and counters written to {path}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "item_s.p50": {"value": statistics.median(times), "unit": "s"},
            "item_s.p90": {"value": p90, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
