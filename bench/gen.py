"""Seeded model generators for the benchmark.

Every generator returns a `Generated`: the model text the library parses,
the signature matrix the text must produce (known from construction, so
the output checks do not depend on the library's sigma), and, for the
families that are solved, a consistent-looking point to draw initial values
and guesses from.  The library only ever receives the text and the
initialization data built from the point.

Families:
- cascade: the chain of first-order equations from the scale tests, with
  slack coupling (through x_{k-1}) or tight coupling (through x_{k-1}').
- pendulum chain: N plane pendulums.  "slack" couples pendulum k to the
  position x_{k-1}, "tight" to the acceleration Der(x_{k-1},2) (the index
  stays 3 in both), and "lambda" drives pendulum k's length by the tension
  multiplier of pendulum k-1, as in models/two_pendula.dae, so the index
  grows by two per pendulum.  Every nonlinear_every-th pendulum carries a
  cubic term in its top-order unknown, which makes its first square stage
  nonlinear.
- random sparse: a planted transversal plus random extra entries per row,
  orders 0..3, mixing sums, products and sin.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

L = 1.0
G = 9.8


@dataclass
class Generated:
    family: str
    n: int
    text: str
    sigma: list[dict[int, int]]  # per equation: variable index -> order
    point: dict[tuple[int, int], float] = field(default_factory=dict)


def cascade(n: int, tight: bool) -> Generated:
    """Chain of n first-order equations, as `_cascade` in tests/test_scale.py.

    tight=False couples block k to k-1 through the undifferentiated value
    x_{k-1}: that dependency is slack, so it shows up in the coarse form
    only.  tight=True couples through x_{k-1}', the stage unknown of the
    upstream block, which makes the fine form a chain.
    """
    lines = ["var %s;" % ", ".join("x%d" % k for k in range(1, n + 1))]
    lines.append("eq e1: Der(x1,1) + x1 = 0;")
    sigma = [{0: 1}]
    for k in range(2, n + 1):
        if tight:
            lines.append(
                "eq e%d: Der(x%d,1) + Der(x%d,1) + x%d = 0;" % (k, k, k - 1, k)
            )
            sigma.append({k - 1: 1, k - 2: 1})
        else:
            lines.append("eq e%d: Der(x%d,1) + x%d*x%d = 0;" % (k, k, k - 1, k))
            sigma.append({k - 1: 1, k - 2: 0})
    family = "tight_cascade" if tight else "slack_cascade"
    return Generated(family, n, "\n".join(lines) + "\n", sigma)


def pendulum_chain(
    rng: random.Random, pendulums: int, coupling: str, nonlinear_every: int = 0
) -> Generated:
    """A chain of plane pendulums with variables x_k, y_k, l_k (tension).

    Returns the model and a hanging configuration: each pendulum at a small
    seeded angle and angular velocity, with its tension and accelerations
    from the free pendulum's equations.  Couplings and cubic terms are weak,
    so the configuration is a good starting guess for every stage.
    """
    c = round(rng.uniform(0.01, 0.05), 4)
    e = round(rng.uniform(0.02, 0.08), 4)
    names = []
    for k in range(1, pendulums + 1):
        names += ["x%d" % k, "y%d" % k, "l%d" % k]
    lines = [
        "const L = %r;" % L,
        "const G = %r;" % G,
        "const c = %r;" % c,
        "const e = %r;" % e,
        "var %s;" % ", ".join(names),
    ]
    sigma: list[dict[int, int]] = []
    point: dict[tuple[int, int], float] = {}
    for k in range(1, pendulums + 1):
        jx, jy, jl = 3 * (k - 1), 3 * (k - 1) + 1, 3 * (k - 1) + 2
        a_row = {jx: 2, jl: 0}
        a = "Der(x%d,2) + x%d*l%d" % (k, k, k)
        c_row = {jx: 0, jy: 0}
        length = "L^2"
        if k > 1:
            if coupling == "slack":
                a += " + c*x%d" % (k - 1)
                a_row[jx - 3] = 0
            elif coupling == "tight":
                a += " + c*Der(x%d,2)" % (k - 1)
                a_row[jx - 3] = 2
            else:
                length = "(L + c*l%d)^2" % (k - 1)
                c_row[jl - 3] = 0
        b = "Der(y%d,2) + y%d*l%d - G" % (k, k, k)
        if nonlinear_every and k % nonlinear_every == 0:
            b = "Der(y%d,2) + e*Der(y%d,2)^3 + y%d*l%d - G" % (k, k, k, k)
        lines.append("eq A%d: %s = 0;" % (k, a))
        lines.append("eq B%d: %s = 0;" % (k, b))
        lines.append("eq C%d: x%d^2 + y%d^2 - %s = 0;" % (k, k, k, length))
        sigma += [a_row, {jy: 2, jl: 0}, c_row]

        theta = rng.uniform(-0.3, 0.3)
        omega = rng.uniform(-0.2, 0.2)
        x, y = L * math.sin(theta), -L * math.cos(theta)
        vx, vy = L * omega * math.cos(theta), L * omega * math.sin(theta)
        lam = (G * y + vx * vx + vy * vy) / (L * L)
        point.update(
            {
                (jx, 0): x,
                (jy, 0): y,
                (jx, 1): vx,
                (jy, 1): vy,
                (jx, 2): -x * lam,
                (jy, 2): G - y * lam,
                (jl, 0): lam,
            }
        )
    family = "%s_chain" % coupling
    return Generated(family, 3 * pendulums, "\n".join(lines) + "\n", sigma, point)


def random_sparse(rng: random.Random, n: int, per_row: tuple[int, int]) -> Generated:
    """Random model with a planted transversal, as `random_sigma` in
    tests/conftest.py, but with per_row = (lo, hi) entries in every row.

    Each entry (j, p) is one occurrence of x_j differentiated p times; the
    occurrences of a row are combined by sums, products and sin, so the
    signature entry is exactly p.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    sigma: list[dict[int, int]] = []
    lines = ["var %s;" % ", ".join("x%d" % j for j in range(1, n + 1))]
    for i in range(n):
        count = min(n, rng.randint(*per_row))
        cols = {perm[i]}
        while len(cols) < count:
            cols.add(rng.randrange(n))
        row = {j: rng.randint(0, 3) for j in sorted(cols)}
        sigma.append(row)
        terms = []
        for j, p in row.items():
            atom = "x%d" % (j + 1) if p == 0 else "Der(x%d,%d)" % (j + 1, p)
            roll = rng.random()
            if roll < 0.15:
                atom = "sin(%s)" % atom
            elif roll < 0.3:
                atom = "%s^2" % atom
            terms.append("%s*%s" % (round(rng.uniform(0.5, 2.0), 3), atom))
        if len(terms) > 2 and rng.random() < 0.5:
            terms[0:2] = ["%s*%s" % (terms[0], terms[1])]
        lines.append("eq e%d: %s = %s;" % (i + 1, " + ".join(terms), round(rng.uniform(-1, 1), 3)))
    return Generated("random", n, "\n".join(lines) + "\n", sigma)


def size_ladder(rng: random.Random, lo: int, hi: int, count: int, log: bool) -> list[int]:
    """count sizes from lo to hi, evenly spaced (in log when log=True), each
    moved by a seeded jitter of up to 1 percent.

    The ladder covers the range the same way for every seed, so op-time
    percentiles compare across seeds; a size drawn freely from the range
    would move them by more than the benchmark's bounds.
    """
    sizes = []
    for k in range(count):
        f = k / (count - 1)
        base = lo * (hi / lo) ** f if log else lo + (hi - lo) * f
        sizes.append(min(hi, max(lo, round(base * (1 + rng.uniform(-0.01, 0.01))))))
    return sizes
