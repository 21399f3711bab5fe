"""Host-speed probe: turns measured seconds into reference seconds.

On a shared VM the same work runs up to 1.7x faster or 10% slower for
seconds to minutes at a time, and every kind of work speeds up by about
the same factor.  A fixed pure-Python loop, timed inside the process
that does the work, reads that factor.  A time multiplied by
PROBE_REF_S / (probe time) is in reference seconds: seconds on a host
where the probe takes PROBE_REF_S.  The probe is the benchmark's own
code, so a change to fincov does not move it.
"""

import contextlib
import json
import signal
import time

PROBE_REF_S = 0.8e-3     # the probe's usual time on a 2-vCPU Xeon VM
PROBE_EVERY_S = 0.05     # children probe this often


def probe():
    """Seconds one fixed loop of dict updates takes now."""
    t = time.perf_counter()
    d = {}
    for i in range(4000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.perf_counter() - t


@contextlib.contextmanager
def probing(path):
    """Probe every PROBE_EVERY_S while the block runs and write the
    probe times to path at the end.  The probes run in a SIGALRM handler,
    between bytecodes of the work in this process, so they see the host
    as the work does; a probe from an idle parent process reads slow."""
    probes = [probe()]
    signal.signal(signal.SIGALRM, lambda *_: probes.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probes.append(probe())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(probes, fh)


def scale(probe_s):
    """Reference seconds per measured second at a probe time."""
    return PROBE_REF_S / probe_s
