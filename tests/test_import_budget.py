"""No command loads numpy.

The check runs in a fresh interpreter, because this process has numpy
loaded already.  Its `mu` runs include a hint over the prime field F_3,
whose commutation systems go through the one elimination of `fflinalg`,
and S6 with no witness draws, so that the Alt(6) row falls back to the
Cayley table search.  The oracle runs list Cayley tables of a group and
of a quotient.  ``mindeg.oracle`` and ``mindeg.smallgroup`` must still be
imported with ``mindeg.cli``: the bench tracer patches their functions
through ``sys.modules`` before any command runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import mindeg.cli

from .groups import hint_data, psl3_graph_extension

SRC = Path(mindeg.cli.__file__).resolve().parent.parent
FIXTURES = SRC / "mindeg" / "fixtures"

CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import mindeg.pipeline
from mindeg.cli import run_cli

def state():
    return {"mindeg": sorted(m for m in sys.modules
                             if m.startswith("mindeg.")),
            "numpy": sorted(m for m in sys.modules
                            if m in ("numpy._core", "numpy.core"))}

report = {"import": state(), "codes": [], "outputs": []}
fx = sys.argv[2]
for argv in (["mu", "--json", fx + "/A5wrZ2.grp"],
             ["mu", "--json", "--hint", fx + "/PSL34_2.hint.json",
              fx + "/PSL34_2.grp"],
             ["mu", "--json", "--hint", sys.argv[4], sys.argv[3]],
             ["mu", "--json", fx + "/S6.grp"],
             ["mu-oracle", "--json", fx + "/S5.grp"],
             ["mu-quotient", "--json", fx + "/S4modV4.grp"]):
    if argv[-1].endswith("S6.grp"):
        mindeg.pipeline.SYM6_WITNESS_DRAWS = 0
    if argv[0] == "mu-oracle":
        report["mu"] = state()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report["codes"].append(run_cli(argv))
    report["outputs"].append(out.getvalue())
report["oracle"] = state()
print(json.dumps(report))
"""


def test_no_command_loads_numpy(tmp_path):
    # hinted PSL(3,3).2 of graph type
    G, gens, L = psl3_graph_extension(3)
    group = tmp_path / "PSL33_2.grp"
    group.write_text(f"degree {G.degree}\n"
                     + "".join(f"gen {g}\n" for g in G.generators))
    hint = tmp_path / "PSL33_2.hint.json"
    hint.write_text(json.dumps(hint_data("SL", 3, 3, gens, L)))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), str(FIXTURES), str(group),
         str(hint)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0, 0, 0, 0]
    assert {"mindeg.oracle", "mindeg.smallgroup"} <= set(
        report["import"]["mindeg"])
    assert report["import"]["numpy"] == []
    assert report["mu"]["numpy"] == []
    assert json.loads(report["outputs"][0])["total"] == 10
    assert json.loads(report["outputs"][1])["total"] == 42
    assert json.loads(report["outputs"][2])["total"] == 26
    assert json.loads(report["outputs"][3])["total"] == 6
    assert json.loads(report["outputs"][4])["mu"] == 5
    assert json.loads(report["outputs"][5])["mu"] == 3
    assert report["oracle"]["numpy"] == []
