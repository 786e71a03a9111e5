"""Shared fixtures for the simulator tests."""

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_PATH = Path(__file__).with_name("legacy_goldens.json")


def _decode(value):
    """Lists become arrays and ``{"re", "im"}`` pairs complex arrays."""
    if isinstance(value, dict):
        if set(value) == {"re", "im"}:
            return np.asarray(value["re"]) + 1j * np.asarray(value["im"])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return np.asarray(value, dtype=float)
    return value


@pytest.fixture(scope="session")
def legacy_goldens():
    """Outputs of the removed per-element re-stamping engine (see the
    file's ``_about`` entry), which the compiled engine must reproduce."""
    return _decode(json.loads(GOLDEN_PATH.read_text()))
