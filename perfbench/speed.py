"""Machine-speed calibration for the end-to-end timings.

On a shared host a vCPU does not run at one speed: work from other
tenants slows it by up to about 1.8x, in spells of a tenth of a second
to a few seconds, independently on each vCPU, and how much of the time
is slow drifts over minutes.  Process CPU time slows with it, so
neither the wall nor the CPU time of two runs minutes apart compare.

:class:`Calibrator` starts this file as a process at the lowest CPU
priority (nice 19) on the one CPU the benchmark pins itself and its CLI
runs to.  The scheduler hands it a small slice (about 1.5%) of that CPU
every few tens of milliseconds, all through each run, so it meets the
same spells as the program.  It times a fixed pure-Python kernel (a
small edit-distance DP: loops, list indexing and ``min``, the kind of
interpreter work the workloads do) in its own CPU time and publishes
the running totals in a shared file.  ``run.py`` scales each run's wall
time by :data:`REFERENCE_CHUNK_S` over the CPU time per chunk measured
during that run, so a timing reads as seconds at the reference speed.
The kernel is part of the benchmark, not of the program: a change to the
program does not move it.

Run as a script (by :class:`Calibrator` only)::

    python speed.py RECORD_FILE
"""

import mmap
import os
import random
import struct
import subprocess
import sys
import time

# CPU time of one chunk at the reference speed: about the fastest it ran
# (0.53-0.55 ms) beside the workloads on a 2-vCPU x86-64 VM under
# CPython 3.11.  Only ratios to it matter.
REFERENCE_CHUNK_S = 0.00055
STARTUP_TIMEOUT_S = 30
# (sequence, chunks, CPU seconds, sequence): a reader that sees two
# different sequence numbers read the record while it was being written.
_RECORD = struct.Struct("qqdq")


def _chunk(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _serve(path):
    """Run chunks until the parent exits, publishing totals after each."""
    os.nice(19)
    parent = os.getppid()
    rng = random.Random(7)
    a = [rng.randrange(6) for _ in range(40)]
    b = [rng.randrange(6) for _ in range(40)]
    with open(path, "r+b") as f, mmap.mmap(f.fileno(), _RECORD.size) as record:
        chunks = 0
        start = time.process_time()
        while os.getppid() == parent:
            _chunk(a, b)
            chunks += 1
            record[:] = _RECORD.pack(chunks, chunks, time.process_time() - start, chunks)


class Calibrator:
    """The calibration process and its shared record; close() stops it."""

    def __init__(self, path):
        path.write_bytes(bytes(_RECORD.size))
        self._file = open(path, "r+b")
        self._record = mmap.mmap(self._file.fileno(), _RECORD.size)
        self._proc = subprocess.Popen([sys.executable, __file__, str(path)],
                                      stdin=subprocess.DEVNULL)
        try:
            deadline = time.perf_counter() + STARTUP_TIMEOUT_S
            while self.reading()[0] == 0:
                if self._proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("the calibration process did not start")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def reading(self):
        """(chunks, CPU seconds) the calibration process has run so far."""
        for _ in range(1000):
            first, chunks, cpu_s, last = _RECORD.unpack(self._record[:])
            if first == last:
                return chunks, cpu_s
            time.sleep(0.001)  # caught mid-write: let the writer finish
        raise RuntimeError("the calibration record stays half-written")

    def close(self):
        self._proc.kill()
        self._proc.wait()
        self._record.close()
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def chunk_seconds(before, after):
    """CPU seconds per chunk between two readings; None if none ran."""
    chunks = after[0] - before[0]
    return (after[1] - before[1]) / chunks if chunks > 0 else None


if __name__ == "__main__":
    _serve(sys.argv[1])
