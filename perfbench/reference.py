"""Fixed reference job that measures how fast the host is right now.

A fresh interpreter imports the standard modules chainrank uses and does a
little ordering search of its own; it never imports chainrank, so no change to
the program can move its time. run.py scales every end-to-end time by the
reference's nominal time over its measured time (see run.py).
"""

import argparse  # noqa: F401  (import cost is part of the reference)
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import itertools
import json  # noqa: F401
import random  # noqa: F401

seen = set()
for order in itertools.permutations(range(7)):
    acc, prefixes = 0, [0]
    for c in order:
        acc |= 1 << c
        prefixes.append(acc)
    seen.add(tuple(p ^ 0b1010101 for p in prefixes))
print(len(seen))
