"""Host speed probe: a fixed mix of work timed in a helper process.

On a shared VM the same work runs up to 1.7x slower from one few-second
stretch to the next, with no steal time, so only a probe timed next to the
program sees the slowdown. The probe mixes the kinds of work germapprox
does: an interpreter loop, a walk over Python objects scattered through
memory (a working set past the core's L2 cache, into the shared L3), small
numpy operations on 256-row arrays, a numpy gather from an 8 MB array, and
allocation of small tuples and lists.

The probe runs in its own process, so its data does not count in the
benchmark's peak RSS. ``run.py`` pins itself to one CPU before it starts
the helper, which inherits the pin, so the probe and the tasks share a
core: the two vCPUs of such a VM slow down independently. The helper only
runs while ``run.py`` waits for its reading.

Protocol: the helper prints ``ready``, then for each line read from stdin
prints one reading in seconds; it exits at end of input.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

OBJECTS = 150_000
WALK = 30_000
GATHER_ROWS = 1_000_000
GATHER_INDICES = 100_000


class _Work:
    def __init__(self):
        # imported here, so that importing this module from run.py does not
        # import numpy ahead of the timed set-up
        import numpy as np
        self.np = np
        rng = np.random.default_rng(20260)
        objs = [{"a": float(i), "b": (i, i + 1)} for i in range(OBJECTS)]
        self.walk = [objs[i] for i in rng.permutation(OBJECTS)[:WALK]]
        self.big = rng.standard_normal(GATHER_ROWS)
        self.idx = rng.integers(0, GATHER_ROWS, GATHER_INDICES)
        self.x = rng.standard_normal((256, 3))

    def run(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        total = 0.0
        for o in self.walk:
            total += o["a"]
        np, x = self.np, self.x
        for _ in range(150):
            a = np.exp(x[:, 0]) - 1.0 - x[:, 1] * x[:, 2]
            b = np.stack([a, x[:, 0] * 2.0, np.sin(x[:, 1])], axis=1)
            (b * b).sum(axis=1)
        for _ in range(5):
            self.big[self.idx].sum()
        for _ in range(3000):
            [(i, float(i)) for i in range(20)]
        return time.perf_counter() - t0


class HostProbe:
    """Client of the helper process; use as a context manager."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__(None, None, None)
            raise RuntimeError("host probe helper did not start")
        return self

    def read(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe helper exited")
        return float(line)

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
        return False


def main() -> int:
    work = _Work()
    work.run()  # warm-up
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(work.run()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
