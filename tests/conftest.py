"""Shared fixtures."""

import pytest

from tests.epoll_oracle import shadow_epoll


@pytest.fixture(scope="module")
def epoll_shadow():
    """Shadow-check every epoll scan and wakeup decision of a module's
    tests against the brute-force full scan (module scope, so it also
    covers hypothesis tests)."""
    with shadow_epoll() as calls:
        yield calls
