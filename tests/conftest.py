import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def decode_calls(monkeypatch):
    """Record whether each `json.loads` call had a `parse_float` hook:
    [True] is the memo path, [True, False] the fallback."""
    calls = []
    real = json.loads

    def spy(text, **kwargs):
        calls.append("parse_float" in kwargs)
        return real(text, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return calls


@pytest.fixture
def benchmark_config(tmp_path, monkeypatch):
    """A function that writes the run config of a perfbench workload (its
    enhance config with `enhance=True`), at a given config seed, to a file
    and returns its path. perfbench/workloads.py is loaded from its file,
    read-only."""
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))     # workloads imports oracle
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH_DIR / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)    # for its dataclasses
    spec.loader.exec_module(workloads)

    def write(workload: str, seed: int, enhance: bool = False) -> Path:
        kind = "enhance_config" if enhance else "run_config"
        path = tmp_path / f"{workload}-{kind}-{seed}.json"
        path.write_text(json.dumps(dict(getattr(workloads.WORKLOADS[workload], kind), seed=seed)))
        return path

    return write
