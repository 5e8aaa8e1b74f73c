"""What a fresh interpreter loads for ``import dsx.cli``, which every CLI run pays for."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# Run without site (-S), so that only dsx decides what is loaded.
PROBE = """
import sys
import dsx.cli
print(sorted(m for m in ("dataclasses", "inspect", "dsx.codegen") if m in sys.modules))
import dsx
from dsx import generate_all
print(dsx.Target.EDC.value, generate_all.__module__)
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
print([name for name in dsx.__all__ if not hasattr(dsx, name)])
"""


def test_cli_import_loads_neither_dataclasses_nor_codegen():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    # Loading codegen for gen does not load dataclasses either.
    assert result.stdout.splitlines() == ["[]", "edc dsx.codegen", "[]", "[]"]
