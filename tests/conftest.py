import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a new non-daemon thread running.

    The library keeps no thread between calls: `simulate.map_shards` joins
    every worker before it returns or raises.
    """
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.is_alive() and not t.daemon]
    if leaked:
        pytest.fail(f"test left non-daemon threads running: {leaked}")
