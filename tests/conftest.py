from datetime import date, datetime, time, timezone
from pathlib import Path

import pytest

from dsx import ParseResult, parse

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Reference date for expiry checks: keeps fixture assertions stable no
# matter when the suite runs (the flagship contract ends 2026-12-31).
FIXTURE_TODAY = date(2026, 6, 1)
# The same date as a SOURCE_DATE_EPOCH value, which pins the CLI's reference date.
FIXTURE_EPOCH = str(int(datetime.combine(FIXTURE_TODAY, time(), timezone.utc).timestamp()))


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def parse_fixture(name: str) -> ParseResult:
    return parse(fixture_text(name), str(FIXTURES / name))


@pytest.fixture
def production_machine() -> ParseResult:
    result = parse_fixture("production-machine.dsx")
    assert result.model is not None, result.diagnostics
    return result


@pytest.fixture
def machine_opcua() -> ParseResult:
    result = parse_fixture("machine-opcua.dsx")
    assert result.model is not None, result.diagnostics
    return result


@pytest.fixture
def sensor_idlink() -> ParseResult:
    result = parse_fixture("sensor-idlink.dsx")
    assert result.model is not None, result.diagnostics
    return result
