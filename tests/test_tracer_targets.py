"""The benchmark's tracer times the program by wrapping its functions by
name, and a name it cannot find, or a count hook that no longer fits a
function's arguments or result, reads as a zero layer. These checks make
such a change fail here instead."""

import importlib
import importlib.util
from pathlib import Path

from forestinv.cli import main
from test_pipeline import make_scene

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_is_a_callable_of_the_program():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


def test_every_count_hook_records_its_counts(tmp_path, capsys, monkeypatch):
    # a count hook that fails prints a `tracer:` line
    tracer = load_tracer()
    pipeline_ini = make_scene(tmp_path, classifier="svm")
    for module, attr, _, _ in tracer.TARGETS:
        # setting each target to itself has monkeypatch restore it after
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spans = tracer.Tracer()
    tracer.install(spans)
    assert main(["run", "--config", str(pipeline_ini),
                 "--out", str(tmp_path / "traced")]) == 0
    err = capsys.readouterr().err
    assert not [line for line in err.splitlines()
                if line.startswith("tracer:")], err
    counted = {name for _, _, name, count in tracer.TARGETS
               if count is not None}
    recorded = [span for span in spans.spans if span[0] in counted]
    assert {span[0] for span in recorded} == counted
    assert [span for span in recorded if not isinstance(span[4], dict)] == []
