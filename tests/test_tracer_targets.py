"""The benchmark's tracer times the program by wrapping its functions by
name, and a name it cannot find reads as a zero layer. These checks make
a rename or a deletion fail here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_is_a_callable_of_the_program():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
