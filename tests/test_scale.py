import math
import time

import numpy as np
import pytest

import daestruct as ds


def _cascade(n, tight):
    """A chain of n first-order equations.

    tight=False couples block k to k-1 through the undifferentiated value
    x_{k-1}: that dependency is slack (order 0 < d-c), so it shows up in
    the coarse form only and the fine blocks are mutually independent
    within a stage.  tight=True couples through x_{k-1}', which is exactly
    the stage unknown of the upstream block, making the fine form a chain.
    """
    lines = ["var %s;" % ", ".join("x%d" % k for k in range(1, n + 1))]
    lines.append("eq e1: Der(x1,1) + x1 = 0;")
    for k in range(2, n + 1):
        if tight:
            lines.append(
                "eq e%d: Der(x%d,1) + Der(x%d,1) + x%d = 0;" % (k, k, k - 1, k)
            )
        else:
            lines.append("eq e%d: Der(x%d,1) + x%d*x%d = 0;" % (k, k, k - 1, k))
    return ds.parse_model("\n".join(lines))


def test_slack_coupling_is_coarse_only():
    n = 30
    start = time.perf_counter()
    model = _cascade(n, tight=False)
    a = ds.analyze(model)
    assert a.fine.p == n
    assert all(b.size == 1 for b in a.fine.blocks)
    # no same-stage dependencies: the fine blocks are incomparable and come
    # out in source order
    assert [b.cols for b in a.fine.blocks] == [(j,) for j in range(n)]
    # the coarse form sees the chain: the most downstream variable first
    assert [b.cols for b in a.coarse.blocks] == [(j,) for j in reversed(range(n))]
    assert a.metrics.index == 0
    assert a.metrics.dof == n
    assert a.ql.gamma_dae == 1
    assert a.local.lead_times == (0,) * n
    assert a.init_fine.values == {(j, 0) for j in range(n)}
    assert a.init_fine.guesses == frozenset()

    values = {(j, 0): 1.0 for j in range(n)}
    rep = ds.solve_to_order(a, values, {}, K=15)
    assert rep.max_residual < 1e-12
    # the head decays exponentially: coefficients of exp(-t)
    for r in range(16):
        tc = rep.derivatives[(0, r)] / math.factorial(r)
        assert tc == pytest.approx((-1.0) ** r / math.factorial(r), rel=1e-14)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_tight_coupling_orders_fine_blocks_as_a_chain():
    n = 20
    model = _cascade(n, tight=True)
    a = ds.analyze(model)
    assert a.fine.p == n
    # upstream variables must be available first: the head is block n
    assert [b.cols for b in a.fine.blocks] == [(j,) for j in reversed(range(n))]
    from daestruct.scheme import stage_sets

    cells = stage_sets(0, a.fine, a.offsets, a.local, a.pattern, a.ql.gamma_eq)
    # every block after the head consumes its neighbour's stage unknown
    pos_of = {j: p for p, j in enumerate(a.fine.col_perm)}
    for l in range(1, n):  # blocks 1..n-1 hold x_n..x_2
        cell = cells[l - 1]
        j = a.fine.col_perm[list(a.fine.block_positions(l))[0]]
        assert cell.cross_block_inputs == {(pos_of[j - 1], 1)}
    assert cells[n - 1].cross_block_inputs == frozenset()

    values = {(j, 0): 0.5 for j in range(n)}
    rep = ds.solve_to_order(a, values, {}, K=12)
    assert rep.max_residual < 1e-12
    # hand-check the second lane: x2' = -x1' - x2 = 0.5 - 0.5 = 0 at t=0
    assert rep.derivatives[(0, 1)] == pytest.approx(-0.5, abs=1e-14)
    assert rep.derivatives[(1, 1)] == pytest.approx(0.0, abs=1e-14)


def test_block_restricted_numeric_jacobian(two_pendula, two_pendula_analysis):
    a = two_pendula_analysis
    state = ds.StatePoint()
    coords = {(0, 0): 1.0, (1, 0): 2.0, (2, 0): 5.0}
    for j in range(6):
        for r in range(a.offsets.d[j] + 1):
            state.set_derivative(j, r, coords.get((j, r), 0.0))
    block = a.fine.blocks[3]  # the three-equation pendulum block
    jac = ds.numeric_jacobian(two_pendula, a.sm, a.offsets, block, state)
    assert jac.shape == (3, 3)
    assert np.allclose(jac, [[1, 0, 1], [0, 1, 2], [2, 4, 0]])
    singleton = a.fine.blocks[0]  # the driven equation in its own variable
    state.set_derivative(4, 3, 3.0)
    jac1 = ds.numeric_jacobian(two_pendula, a.sm, a.offsets, singleton, state)
    assert jac1.shape == (1, 1)
    assert jac1[0, 0] == 2.0 * 3.0
