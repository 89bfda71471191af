"""The host's current speed, from a fixed calibration kernel.

The measuring machine shares its host with other machines' load, and in slow
spells, from a second to minutes long, every part of the program runs up to
2x slower.  The fastest repeat of a call does not remove a spell that covers
a whole run, or one that covers most of a call of several seconds.  So the
benchmark times a fixed kernel, which is part of the benchmark and never
changes, next to the program's calls and scales each call's time by how much
slower than usual the kernel ran around it:

    scaled = seconds * REFERENCE_S / kernel_seconds

A scaled time is the call's time on a host that runs the kernel in
REFERENCE_S, the kernel's fastest time on the 2-core virtual machine the
benchmark was written on, in a quiet spell.  A change to the program moves
the call's time and not the kernel's, so it shows in full.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.00175  # the kernel's fastest time in a quiet spell (see above)
BURSTS = 4  # kernel runs per speed point; the fastest counts


def kernel() -> int:
    """Memoised recursion over tuples of ints, the kind of work banditlab's
    dimension searches and learners do in pure Python."""
    memo: dict = {}

    def split(rows, depth):
        key = (rows, depth)
        if key in memo:
            return memo[key]
        if depth == 0 or len(rows) <= 1:
            memo[key] = len(rows)
            return len(rows)
        best = 0
        for bit in range(3):
            ones = tuple(r for r in rows if (r >> bit) & 1)
            zeros = tuple(r for r in rows if not (r >> bit) & 1)
            best = max(best, min(split(ones, depth - 1), split(zeros, depth - 1)) + 1)
        memo[key] = best
        return best

    return sum(split(tuple(range(j, 40 + j)), 5) for j in range(6))


def speed_point() -> float:
    """The kernel's fastest time over BURSTS runs, in seconds."""
    best = float("inf")
    for _ in range(BURSTS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds: float, kernel_seconds: float) -> float:
    return seconds * REFERENCE_S / kernel_seconds


kernel()  # warm the interpreter's caches before the first speed point
