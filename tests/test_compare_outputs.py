"""scripts/compare_outputs.py: checks that run before any workload does."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unknown_revision_exits_two_before_any_workload(monkeypatch, capsys):
    script = load_script()

    def no_workload(*args):
        raise AssertionError("a workload ran before the revision was checked")

    monkeypatch.setattr(script, "export_src", no_workload)
    monkeypatch.setattr(script, "run_tree", no_workload)
    with pytest.raises(SystemExit) as exc:
        script.main(["no-such-rev"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith("error: 'no-such-rev' does not name a commit")
