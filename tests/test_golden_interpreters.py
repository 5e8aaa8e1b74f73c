"""The golden digests hold under every interpreter named in DSX_GOLDEN_PYTHONS.

The variable lists interpreter paths separated by ``os.pathsep``; without
it the running interpreter is checked.  Each runs ``tests/test_golden.py``
as a script with ``-S``, so with the standard library alone, and must
print exactly the digests in ``GOLDEN`` and ``TOKEN_GOLDEN``::

    DSX_GOLDEN_PYTHONS=/usr/bin/python3.10:/usr/bin/python3.13 \\
        pytest tests/test_golden_interpreters.py

Without a 3.10 interpreter at hand, a second test parses every source file
with the Python 3.10 grammar, the oldest that ``pyproject.toml`` allows, and
a third checks every compiled pattern of ``dsx`` for ``re`` syntax that only
3.11 and later accept.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dsx
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


# The pattern parser of the running interpreter; 3.10 has only sre_parse,
# which later versions deprecate.
if sys.version_info >= (3, 11):
    _parse_pattern = re._parser.parse
else:
    import sre_parse

    _parse_pattern = sre_parse.parse

# Possessive quantifiers (*+, ++, ?+, {m,n}+) and atomic groups (?>...) are
# re syntax from Python 3.11 on; a 3.10 interpreter refuses to compile them.
_NEWER_OPCODES = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _opcodes(node):
    """The name of every opcode in a parsed pattern, nested ones included."""
    if isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item)
    elif hasattr(node, "data"):  # a parsed (sub)pattern: (opcode, argument) pairs
        for opcode, argument in node.data:
            yield opcode.name
            yield from _opcodes(argument)


def test_no_pattern_uses_re_syntax_newer_than_python_3_10():
    modules = [dsx] + [
        importlib.import_module(f"dsx.{info.name}") for info in pkgutil.iter_modules(dsx.__path__)
    ]
    patterns = {
        f"{module.__name__}.{name}": value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, re.Pattern)
    }
    assert "dsx.parser._TOKEN_RE" in patterns and len(patterns) >= 8
    for name, pattern in patterns.items():
        opcodes = set(_opcodes(_parse_pattern(pattern.pattern, pattern.flags)))
        assert not opcodes & _NEWER_OPCODES, name
    if sys.version_info >= (3, 11):  # the walk finds each such construct, also nested
        for newer in ("a*+", "a++", "a?+", "a{1,2}+", "(?>a|b)", "x(?:y|(z?+))", "[+]++"):
            assert set(_opcodes(_parse_pattern(newer))) & _NEWER_OPCODES, newer
        assert not set(_opcodes(_parse_pattern(r"\++[+]+(?:a+)+"))) & _NEWER_OPCODES
