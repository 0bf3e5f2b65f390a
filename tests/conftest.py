import importlib.util
from pathlib import Path

import pytest


@pytest.fixture
def verification_script():
    """``scripts/run_full_verification.py`` loaded as a fresh module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
