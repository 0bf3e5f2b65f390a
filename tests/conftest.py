import importlib.util
from pathlib import Path

import pytest


def _load_script(name: str):
    """``scripts/<name>.py`` loaded as a fresh module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture
def verification_script():
    """``scripts/run_full_verification.py`` loaded as a fresh module."""
    return _load_script("run_full_verification")


@pytest.fixture
def tables_script():
    """``scripts/generate_tables.py`` loaded as a fresh module."""
    return _load_script("generate_tables")
