"""A fixed task that gauges the host's speed, run before every timed command.

    python3 perfbench/reference_task.py

It starts a fresh interpreter, imports numpy and does a fixed amount of
work of the kinds the CLI does: regex tokenizing, dict counting, sorting,
string formatting, and numpy sorts and searches. It never imports
moodtrends, so no change to the package can change its time. run.py divides
each command's wall time by the wall time of the reference task run just
before it; see README.md, "Noise".
"""

from __future__ import annotations

import random
import re

import numpy as np


def reference_work() -> int:
    rng = random.Random(20060101)
    words = ["".join(rng.choice("etaoinshrdlu") for _ in range(rng.randint(2, 9)))
             for _ in range(4000)]
    lines = [" ".join(rng.choice(words) for _ in range(40)) for _ in range(600)]
    token = re.compile(r"[a-z]+")
    counts: dict[str, int] = {}
    for _ in range(8):
        for line in lines:
            for w in token.findall(line.lower()):
                counts[w] = counts.get(w, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    text = "\n".join(f"{w},{c},{c / len(ranked):.6g}" for w, c in ranked)

    gen = np.random.default_rng(20060101)
    hits = 0
    for _ in range(300):
        a = np.sort(gen.integers(0, 20, size=400))
        b = np.sort(gen.integers(0, 20, size=400))
        hits += int(np.searchsorted(a, b, side="right").sum())
    return len(text) + hits


if __name__ == "__main__":
    reference_work()
