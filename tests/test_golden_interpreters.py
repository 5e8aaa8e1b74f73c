"""The golden digests hold under every interpreter named in DSX_GOLDEN_PYTHONS.

The variable lists interpreter paths separated by ``os.pathsep``; without
it the running interpreter is checked.  Each runs ``tests/test_golden.py``
as a script with ``-S``, so with the standard library alone, and must
print exactly the digests in ``GOLDEN`` and ``TOKEN_GOLDEN``::

    DSX_GOLDEN_PYTHONS=/usr/bin/python3.10:/usr/bin/python3.13 \\
        pytest tests/test_golden_interpreters.py

Without a 3.10 interpreter at hand, a second test parses every source file
with the Python 3.10 grammar, the oldest that ``pyproject.toml`` allows.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, TOKEN_GOLDEN

ROOT = Path(__file__).parent.parent
INTERPRETERS = os.environ.get("DSX_GOLDEN_PYTHONS", sys.executable).split(os.pathsep)
_DIGEST_RE = re.compile(r'^\s*"([^"]+)": "([0-9a-f]{64})",$', re.MULTILINE)


@pytest.mark.parametrize("python", INTERPRETERS)
def test_golden_script_prints_the_golden_digests(python):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [python, "-S", str(ROOT / "tests" / "test_golden.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [*GOLDEN.items(), *TOKEN_GOLDEN.items()]
    assert list(_DIGEST_RE.findall(proc.stdout)) == expected


def test_every_source_file_parses_with_the_python_3_10_grammar():
    paths = [path for top in ("src/dsx", "tests", "bench") for path in (ROOT / top).rglob("*.py")]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
