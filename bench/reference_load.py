"""A fixed CPU load that the harness runs beside each timed command (standard library only).

    python3 bench/reference_load.py

The load repeats one round of work for as long as it runs and, after each
round, prints ``<wall clock> <own CPU seconds> <rounds done> <checksum>``.
A round does the kind of work the program spends its time on: exact
rational arithmetic, tuple keys and dict updates.  Every round does the same
work and yields the same checksum, which the harness checks.  Nothing here
imports the program, so an optimisation of the program never changes what a
round costs; the rounds per CPU second only follow how fast the machine runs
at that moment.

The load lowers its own priority to nice 10, so a command sharing its CPU
gets about nine tenths of it.  It exits when the harness stops reading, or
after ten minutes.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

STEPS = 500
NICE = 10
MAX_SECONDS = 600.0


def one_round() -> int:
    x, acc, seen = Fraction(1, 3), Fraction(0), {}
    for i in range(1, STEPS + 1):
        x = (3 * x + Fraction(i % 7, 11)) % 1
        key = (x.numerator % 1009, x.denominator, i % 5)
        seen[key] = seen.get(key, 0) + 1
        acc += x / (i % 5 + 1)
    return (len(seen) * 1_000_003 + acc.numerator % 1_000_003) % 2**31


def main() -> int:
    os.nice(NICE)
    deadline = time.perf_counter() + MAX_SECONDS
    rounds = 0
    try:
        while time.perf_counter() < deadline:
            checksum = one_round()
            rounds += 1
            sys.stdout.write(f"{time.perf_counter()} {time.process_time()} {rounds} {checksum}\n")
            sys.stdout.flush()
    except (BrokenPipeError, KeyboardInterrupt):
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
