"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same pass can run 20-40 % faster or slower from one
minute to the next, because other tenants load the shared cores, caches and
memory. The benchmark runs this kernel next to every measured interval and
scales each wall time by ``NOMINAL_S / reference time``, which cancels most
of that drift; raw times are kept in the run record. The kernel uses numpy
and plain Python only, never ``catrank``, and runs in a process of its own
(:class:`ReferenceProcess`), so neither the package's code nor the heap a
workload leaves behind moves it. A change to this file invalidates every
earlier baseline.

Its mix mirrors the workloads': a Python loop of small vector updates (the
skip-gram trainer), a broadcast distance block larger than the L2 cache
(the neighbor kernels), float text formatting and parsing (the loaders) and
hashing a buffer (the manifests).
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time

import numpy as np

#: Typical kernel time on the 2-CPU machine the baseline was taken on; it
#: only sets the scale, so adjusted times read as seconds on that machine.
NOMINAL_S = 0.25

_BUFFER = bytes(range(256)) * 40_000


def _updates(rng):
    vecs = rng.random((256, 64))
    nodes = rng.random((264, 64))
    for i in range(4000):
        a, b = i % 256, (i * 7) % 256
        x = nodes[b:b + 8] @ vecs[a]
        f = 1.0 / (1.0 + np.exp(-x))
        vecs[a] -= 0.01 * (f @ nodes[b:b + 8])


def _distances(rng):
    rows = rng.random((800, 32))
    for s in range(0, 800, 50):
        np.abs(rows[s:s + 50, None, :] - rows[None, :, :]).sum(axis=-1).argsort(axis=1)


def _text(rng):
    rows = rng.random((600, 32))
    text = "\n".join(",".join(f"{j}:{d!r}" for j, d in enumerate(row.tolist()))
                     for row in rows)
    total = 0.0
    for line in text.split("\n"):
        for cell in line.split(","):
            total += float(cell.partition(":")[2])


def _hash():
    for _ in range(4):
        hashlib.sha256(_BUFFER).digest()


def run_reference() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    _updates(rng)
    _distances(rng)
    _text(rng)
    _hash()
    return time.perf_counter() - t0


class ReferenceProcess:
    """The kernel in a separate, long-lived process, run on request.

    ``with ReferenceProcess() as ref: ref.time()`` runs the kernel once in
    the helper and returns its wall time; the caller waits meanwhile. The
    helper runs the kernel once on start, untimed, so later runs are warm.
    Leaving the ``with`` block stops the helper and waits for it to end.
    """

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        try:
            self.time()
        except BaseException:
            self.__exit__()
            raise
        return self

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return False


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(run_reference()), flush=True)
