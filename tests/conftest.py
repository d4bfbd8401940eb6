import json

import pytest


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
