"""The benchmark's tracer finds every function and method it wraps by name.

`bench/tracing.py` patches skirmish names from outside; a rename in the
package would otherwise fail only under `python -m pytest bench`.
"""

import importlib.util
from pathlib import Path

import skirmish.cli  # noqa: F401  (the tracer wraps what the CLI has imported)
# The CLI imports the stochastic modules only where it draws; the harness
# imports them itself (bench/checks.py), and the tracer reads them from
# sys.modules.
import skirmish.montecarlo  # noqa: F401
import skirmish.series  # noqa: F401
import skirmish.volume  # noqa: F401
from skirmish import streams

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    drawers = streams.raw_slots, streams.unit_floats
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert (streams.raw_slots, streams.unit_floats) != drawers
    finally:
        tracer.uninstall()
    assert (streams.raw_slots, streams.unit_floats) == drawers
