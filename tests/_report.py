"""Shared buffer for the acceptance-criteria summary printed after the run."""

import contextlib
import types

LINES: list[str] = []


def record(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"{status}  {name}"
    if detail:
        line += f"  [{detail}]"
    LINES.append(line)


@contextlib.contextmanager
def criterion(name: str):
    """Record one line for the criterion `name`: FAIL with the message of an
    AssertionError raised in the block, which propagates, or else PASS with
    the `detail` set on the yielded object."""
    outcome = types.SimpleNamespace(detail="")
    try:
        yield outcome
    except AssertionError as exc:
        record(name, False, str(exc))
        raise
    record(name, True, outcome.detail)
