"""Operation lists of the three workloads, generated from a seed.

An operation is one unit the benchmark times: a CLI invocation (`tables`),
one single-index library call (`points`) or one contour oracle
(`oracles`).  The same (workload, seed) always gives the same list.  Seeds
move inputs only inside narrow windows (indices by about 2%, digits by one
or two), so the cost of a list barely depends on the seed and run-to-run
spread measures the program, not the draw.  See README.md for the make-up
of each list and why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("tables", "points", "oracles")


@dataclass(frozen=True)
class Op:
    """One timed operation.

    kind: "cli" (args = argv for zetadiff.cli.main), "point" (args = the
    sequence name followed by its arguments) or "rice"/"saddle" (args =
    the oracle's arguments).  `sample` lists the indices whose values the
    correctness checks recompute, for outputs too long to recompute whole.
    """

    kind: str
    args: tuple
    sample: tuple = field(default=())


def _near(rng: random.Random, center: int, spread: float = 0.02) -> int:
    """An index within `spread` of `center`."""
    w = max(1, round(center * spread))
    return center + rng.randint(-w, w)


def _tables(rng: random.Random) -> list[Op]:
    nb, na, nd, nsig = _near(rng, 300), _near(rng, 150), _near(rng, 250), _near(rng, 300)
    s_real = f"{rng.uniform(-2.5, 0.9):.3f}"
    s_cx = f"{rng.uniform(-1.0, 1.0):.3f}+{rng.uniform(0.5, 4.0):.3f}i"
    return [
        Op("cli", ("seq", "b", "--n", f"1..{nb}", "--digits", str(rng.randint(14, 16))),
           tuple(sorted(rng.sample(range(1, nb + 1), 6)))),
        Op("cli", ("seq", "a", "--m", "1", "--k", "2", "--n", f"1..{na}",
                   "--digits", str(rng.randint(12, 15)), "--threads", "2"),
           tuple(sorted(rng.sample(range(1, na + 1), 4)))),
        Op("cli", ("seq", "d", "--n", f"2..{nd}", "--digits", str(rng.randint(12, 15))),
           tuple(sorted(rng.sample(range(2, nd + 1), 3)))),
        # sample: ranks of the census entries whose sign flip is recomputed
        Op("cli", ("signs", "--n", str(nsig)), tuple(sorted(rng.sample(range(17), 4)))),
        # --s=... so that a leading minus is not read as an option
        Op("cli", ("newton", f"--s={s_real}", "--n", str(_near(rng, 460)), "--digits", "20")),
        Op("cli", ("newton", f"--s={s_cx}", "--n", str(_near(rng, 400)), "--digits", "20")),
    ]


# (sequence, shift or method, index, target digits): indices up to a few
# hundred, targets across 10..40, in a fixed order so each process meets
# the same cache-miss pattern.  The calls in the middle of the cost order,
# which set op_p50_s, are b_n: they go through the mpcore lookups.
_POINTS = (
    ("b", None, 80, 10),
    ("b", None, 160, 12),
    ("b", None, 200, 18),
    ("b", None, 240, 25),
    ("b", None, 300, 35),
    ("delta", "binomial", 150, 15),
    ("delta", "binomial", 250, 25),
    ("delta", "series", 120, 20),
    ("delta", "series", 220, 38),
    ("A", (1, 2), 100, 15),
    ("A", (1, 3), 180, 22),
    ("A", (2, 5), 120, 18),
    ("A", (3, 4), 160, 30),
    ("a", (1, 2), 150, 20),
    ("a", (2, 3), 140, 30),
    ("a", (3, 4), 120, 12),
    ("a", (1, 5), 110, 25),
    ("d", "binomial", 120, 12),
    ("d", "binomial", 200, 18),
    ("d", "moebius", 100, 14),
    ("d", "moebius", 90, 30),
    ("c", None, 100, 16),
    ("c", None, 200, 20),
    ("c", None, 350, 40),
)


def _points(rng: random.Random) -> list[Op]:
    ops = []
    for name, extra, n, digits in _POINTS:
        n = _near(rng, n)
        digits = min(40, max(10, digits + rng.randint(-1, 1)))
        ops.append(Op("point", (name, n, extra, digits)))
    return ops


def _oracles(rng: random.Random) -> list[Op]:
    # Indices and digits are fixed: a quadrature's truncation height goes
    # like 10^(digits/n), so a seeded index or digit count would move the
    # cost of one oracle by 20% or more.
    del rng
    return [
        Op("rice", ("zeta-right", 6, 10)),  # truncation height ~142
        Op("rice", ("zeta-right", 20, 12)),
        Op("rice", ("zeta-left", 20, 10)),
        Op("rice", ("inv-zeta", 10, 12)),
        Op("saddle", (50, 8)),
    ]


_MAKERS = {"tables": _tables, "points": _points, "oracles": _oracles}


def make_ops(workload: str, seed: int) -> list[Op]:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
