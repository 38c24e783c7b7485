"""Two-pointer merge over two KS step tables.

The loop ``moodtrends.stats`` ran once per year pair before every pair's
D came from one packed walk per year; kept here as the reference for that
D.
"""

from __future__ import annotations


def ks_key(a, b) -> tuple[int, int, int]:
    """(d_num, n, m) for two step tables (distinct values ascending, counts
    <= each): d_num = max |F_a(v)*m - F_b(v)*n| over the pooled values v."""
    (xs, cx), (ys, cy) = a, b
    n, m, la, lb = cx[-1], cy[-1], len(xs), len(ys)
    i = j = fa = fb = d_num = 0
    # once either table is used up |fa*m - fb*n| only falls back to 0
    while i < la and j < lb:
        x, y = xs[i], ys[j]
        if x <= y:
            fa, i = cx[i], i + 1
        if y <= x:
            fb, j = cy[j], j + 1
        gap = fa * m - fb * n
        if gap > d_num or -gap > d_num:  # abs() only on a new maximum
            d_num = abs(gap)
    return d_num, n, m
