import threading
import time

import pytest

# HttpServer names every thread it starts with this prefix
SERVER_THREAD_PREFIX = "iccamon-http"


@pytest.fixture(autouse=True)
def no_server_thread_outlives_its_test():
    yield
    deadline = time.monotonic() + 1.0
    while True:
        alive = [t.name for t in threading.enumerate() if t.name.startswith(SERVER_THREAD_PREFIX)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if alive:
        pytest.fail(f"server threads still running after the test: {alive}")
