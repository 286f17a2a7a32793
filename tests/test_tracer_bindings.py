"""Every function the benchmark's tracer wraps is still bound where it looks.

``perfbench/tracer.py`` wraps ``spai_ir.<module>.<name>`` for each entry of
its ``TARGETS``; a name that is gone reads as absent and its figures as
zero.  The benchmark's own tests, which this suite runs too, catch that
in a traced run of each workload; this test reads the list and checks it
against the package directly, without a run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    absent = [
        f"spai_ir.{module}.{attr}"
        for _, _, modules, attr in tracer.TARGETS
        for module in modules
        if not callable(getattr(importlib.import_module(f"spai_ir.{module}"), attr, None))
    ]
    assert absent == []
