"""Machine-speed reference, timed densely alongside the measured work.

On a shared 2-vCPU virtual machine the CPU speed swung by up to 2x over
seconds, far more than the bounds allow.  So every timing is paired
with timings of a fixed *reference step* taken next to it -- the kinds
of work the program does, but none of the program's code -- and is
scaled by how fast the reference ran at that moment:

    scaled time = measured time * REFERENCE_STEP_S / mean reference step

Where the reference steps run:

* closed loop -- the benchmark's line iterator runs a burst of steps
  every ~0.1 s inside the pass, and their time is subtracted from the
  pass;
* open loop -- the schedule iterator runs steps while it waits for the
  next line to fall due, time the CPU would otherwise spend spinning;
* Monte-Carlo -- each worker runs a burst before and after every trial.

A step is one JSON encode/decode of a fixed record, a 64-byte write and
read through a pipe, and a few small numpy reductions.

The reference never calls the program, so a change to the program moves
the scaled figures exactly as it moves the measured ones.  Runs report the
measured figures and the reference slowdown next to the scaled ones.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

#: Duration of one reference step at the reference speed (seconds).
REFERENCE_STEP_S = 2.0e-5
#: Steps in one burst (a few milliseconds).
BURST = 400

_RNG = np.random.default_rng(20240601)
_RECORDS = [
    {
        "kind": "arrival",
        "time": float(t),
        "session": f"s{int(s)}",
        "amount": float(a),
        "clock": int(t),
        "total_backlog": float(b),
    }
    for t, s, a, b in zip(
        range(BURST),
        _RNG.integers(0, 1000, size=BURST),
        _RNG.uniform(0.0, 0.02, size=BURST),
        _RNG.uniform(0.0, 5.0, size=BURST),
    )
]
_VECTOR = _RNG.uniform(0.0, 1.0, size=96)


_PIPE: tuple[int, int, int] | None = None


def _pipe() -> tuple[int, int]:
    """This process's own pipe (a forked child makes a new one)."""
    global _PIPE
    if _PIPE is None or _PIPE[0] != os.getpid():
        _PIPE = (os.getpid(), *os.pipe())
    return _PIPE[1], _PIPE[2]


def step(i: int) -> float:
    """One reference step; returns a value so the work is not skipped.

    It also writes a short line through a pipe and reads it back: the
    program makes a small write system call per ingested line, and
    system calls slow down differently from plain computation.
    """
    text = json.dumps(_RECORDS[i % BURST])
    read_end, write_end = _pipe()
    os.write(write_end, text[:64].encode())
    os.read(read_end, 64)
    back = json.loads(text)
    run = np.cumsum(_VECTOR)
    return back["amount"] + float(np.clip(run - _VECTOR, 0.0, None).sum())


def burst() -> tuple[float, int]:
    """Run one burst of steps; returns ``(seconds, steps)``."""
    start = time.perf_counter()
    for i in range(BURST):
        step(i)
    return time.perf_counter() - start, BURST


class SpeedMeter:
    """Accumulates reference steps and the time they took."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.steps = 0

    def add(self, seconds: float, steps: int) -> None:
        self.seconds += seconds
        self.steps += steps

    def burst(self) -> float:
        """Run and count one burst; returns its wall time."""
        seconds, steps = burst()
        self.add(seconds, steps)
        return seconds

    def factor(self) -> float:
        """``REFERENCE_STEP_S / mean step``: scales measured times to the
        reference speed."""
        if not self.steps:
            return 1.0
        return REFERENCE_STEP_S / (self.seconds / self.steps)


def warm_up() -> None:
    """The first bursts of a process run slower; run and discard two."""
    burst()
    burst()
