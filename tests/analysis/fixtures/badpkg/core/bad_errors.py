"""Bad fixture: exception-boundary violations plus a bare except."""

from repro.spanner.transaction import _CommitFailure


class HomegrownError(Exception):
    """Public exception defined outside repro.errors."""


def fail():
    raise Exception("too generic to act on")


def cross_boundary():
    raise _CommitFailure()


def swallow():
    try:
        fail()
    except:  # noqa: E722
        pass
