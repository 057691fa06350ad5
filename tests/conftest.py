"""Shared reporting for the acceptance gate, and cold kernel memos for every test.

Acceptance tests record one PASS/FAIL line per criterion; the terminal
summary hook replays them at the end of the run so they are visible even
when every test passes.

Every process memo of ``solomon`` and ``oracle`` is cleared before each
test, so a fault that one test plants beneath a memo is never hidden by
entries another test warmed.  A test that means to read a warm memo warms
it itself.
"""

import pytest

from twisted_descents import oracle, solomon

ACCEPTANCE_LINES: list = []


@pytest.fixture(autouse=True)
def cold_kernel_memos():
    for module in (solomon, oracle):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()


def record(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number:2d}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
