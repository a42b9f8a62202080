"""Every name the bench tracer patches must exist in the program.

``mubench/tracing.py`` skips a name it cannot resolve with a warning, so a
rename in ``src/`` would silently zero that name's metrics in
``mubench/run.py --trace 1``.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "mubench",
                       "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("mubench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED = ([(module, attr) for module, attr, _, _ in tracing.SPANS]
          + [(module, attr) for module, attr, _ in tracing.COUNTS])


@pytest.mark.parametrize("module,attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    importlib.import_module(module)
    _, _, target = tracing._resolve(module, attr)
    assert callable(target)
