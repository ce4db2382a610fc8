"""Fixed work that does not touch graphflow, run to gauge the machine's speed.

Usage: python3 bench/reference.py

The benchmark starts this script in a fresh interpreter between the
commands it times.  Its work resembles theirs: interpreter start-up and
the numpy import, pure-Python hashing and sorting of small tuples (as in
graph canonicalization), and numpy arithmetic on arrays of a few MB (as
in curve evaluation).  README.md explains how its wall time is used.
"""

import numpy as np


def main() -> None:
    counts: dict[tuple, int] = {}
    for i in range(20_000):
        key = tuple(sorted(((i * 7919) % 1009, (i * 104729) % 997, i % 13, (i >> 3) % 31)))
        counts[key] = counts.get(key, 0) + 1
    rows = sorted(counts.items())
    x = np.linspace(0.0, 1.0, 250_000)
    for _ in range(8):
        x = np.sin(x) * np.cos(3.0 * x) + 0.5 * x
    print(len(rows), float(x.sum()))


if __name__ == "__main__":
    main()
