"""Guards for tests that let a large computation start and stop it at once.

Such a test patches the computation's entry point with never, which raises
Started, and expects Started.  If the patch misses (the entry point moved or
was renamed), fail_fast makes the test fail in seconds instead of running
the real work: a residue table of 4 GB, or a kernel of a minute.
"""

import os
import resource
import signal
from contextlib import contextmanager


class Started(Exception):
    """Raised by a patched entry point: the work got past the guard under test."""


def never(*args, **kwargs):
    raise Started


@contextmanager
def fail_fast(seconds=10):
    """Let the address space grow by 1 GiB at most, so a larger allocation
    fails at once with MemoryError, and raise TimeoutError after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    resource.setrlimit(resource.RLIMIT_AS, (used + (1 << 30), limits[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
