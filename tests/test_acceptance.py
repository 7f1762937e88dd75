"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Expected values are frozen here; random checks use fixed seeds
and independent brute-force oracles.
"""

import random
import time

import numpy as np
import pytest

import daestruct as ds
from daestruct.codelist import Binary
from daestruct.ql import QlCode, m_sets
from daestruct.scheme import render_schedule, stage_sets
from daestruct.sigma import NEG_INF, SignatureMatrix

from conftest import (
    brute_force_hvt,
    finite_difference_jacobian,
    is_strong_hall,
    load_model,
    ql_analysis,
    random_model,
    random_sigma,
)

X = NEG_INF

IX = {"x": 0, "y": 1, "lambda": 2, "u": 3, "v": 4, "mu": 5}


@pytest.fixture(scope="module")
def tp():
    return ds.analyze(load_model("two_pendula.dae"))


@pytest.fixture(scope="module")
def random_fleet():
    rng = random.Random(123456)
    fleet = []
    while len(fleet) < 200:
        model = random_model(rng, n_max=4, depth=5)
        try:
            fleet.append((model, ds.analyze(model)))
        except ds.StructurallyIllPosed:
            continue
    return fleet


def test_criterion_1_signature_matrix_offsets_index(tp):
    start = time.perf_counter()
    expected = np.array(
        [
            [2, X, 0, X, X, X],
            [1, 2, 0, X, X, X],
            [0, 0, X, X, X, X],
            [X, X, X, 2, X, 0],
            [X, X, X, X, 3, 0],
            [X, X, 2, 0, 0, X],
        ],
        dtype=float,
    )
    assert np.array_equal(tp.sm.sigma, expected)
    assert tp.hvt.assignment == (0, 2, 1, 5, 4, 3)
    assert tp.hvt.value == 5
    assert tp.offsets.c == (4, 4, 6, 0, 0, 2)
    assert tp.offsets.d == (6, 6, 4, 2, 3, 0)
    assert tp.metrics.index == 7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("PASS criterion 1: signature matrix, transversal, offsets, index 7")


def test_criterion_2_fine_btf(tp):
    blocks = [(set(b.rows), set(b.cols)) for b in tp.fine.blocks]
    assert blocks == [
        ({4}, {4}),
        ({3}, {5}),
        ({5}, {3}),
        ({0, 1, 2}, {0, 1, 2}),
    ]
    assert tp.local.c_hat == (0, 0, 0, 0, 0, 2)
    assert tp.local.d_hat == (3, 0, 0, 2, 2, 0)
    assert tp.local.lead_times == (0, 0, 2, 4)
    # strictly below a diagonal block the offset inequality is strict
    block_of = {}
    for l in range(1, tp.fine.p + 1):
        for pos in tp.fine.block_positions(l):
            block_of[pos] = l
    pos_row = {i: p for p, i in enumerate(tp.fine.row_perm)}
    pos_col = {j: p for p, j in enumerate(tp.fine.col_perm)}
    for i in range(6):
        for j in range(6):
            if not np.isfinite(tp.sm.sigma[i, j]):
                continue
            if block_of[pos_row[i]] > block_of[pos_col[j]]:
                assert tp.offsets.d[j] - tp.offsets.c[i] > int(tp.sm.sigma[i, j])
    # every diagonal block is irreducible
    for block in tp.fine.blocks:
        entries = {
            (block.rows.index(i), block.cols.index(j))
            for (i, j) in tp.pattern.s0
            if i in block.rows and j in block.cols
        }
        assert is_strong_hall(entries, block.size)
    print("PASS criterion 2: fine blocks, local offsets, lead times, strong Hall")


def test_criterion_3_quasilinearity(tp, random_fleet):
    assert [e.code.value for e in tp.ql.global_ql] == ["L", "L", "N", "L", "N", "N"]
    assert [e.code.value for e in tp.ql.blockwise] == ["L", "L", "N", "L", "N", "N"]
    assert tp.ql.gamma_block == (0, 1, 0, 1)
    # block-restricted analysis of the coupling equation: nonlinear, first
    # flagged node is the u^2 factor of u^2 + v^2
    model = tp.model
    cl = model.codelist
    blk = tp.ql.blockwise[5]
    assert blk.code is QlCode.N
    first = cl.nodes[blk.first_nonlinear]
    assert isinstance(first, Binary) and first.op == "pow"
    assert first.lhs == 1 + IX["u"]
    parent = next(
        n
        for n in cl.nodes
        if isinstance(n, Binary) and n.op == "add" and n.lhs == blk.first_nonlinear
    )
    v_sq = cl.nodes[parent.rhs]
    assert isinstance(v_sq, Binary) and v_sq.op == "pow" and v_sq.lhs == 1 + IX["v"]
    # vectorized and per-equation classification agree on 200 random models
    for model, a in random_fleet:
        m_g = m_sets(a.sm, a.offsets)
        m_b = m_sets(a.sm, a.offsets, a.fine)
        for i in range(model.n):
            assert ql_analysis(model.codelist, i, m_g[i], a.sm).code is a.ql.global_ql[i].code
            assert ql_analysis(model.codelist, i, m_b[i], a.sm).code is a.ql.blockwise[i].code
    print("PASS criterion 3: quasilinearity verdicts and dual-route agreement")


def test_criterion_4_initialization_sets(tp):
    guesses = {
        (IX["x"], 0),
        (IX["x"], 1),
        (IX["y"], 0),
        (IX["y"], 1),
        (IX["u"], 0),
        (IX["v"], 3),
    }
    values = {(IX["v"], 0), (IX["v"], 1), (IX["v"], 2)}
    assert tp.init_fine.guesses == guesses
    assert len(tp.init_fine.guesses) == 6
    assert tp.init_fine.values == values
    assert len(tp.init_fine.values) == 3
    # the one-block scheme needs everything up to the variable offsets
    expected_basic = set()
    for name, top in [
        ("x", 6), ("y", 6), ("lambda", 4), ("u", 2), ("v", 3), ("mu", 0),
    ]:
        expected_basic.update((IX[name], r) for r in range(top + 1))
    assert tp.init_basic.guesses == expected_basic
    assert tp.init_basic.values == frozenset()
    print("PASS criterion 4: minimal initialization sets (9 pairs vs 27)")


def test_criterion_5_stage_sets_and_schedule(tp):
    # permuted positions: 0=E|v, 1=D|mu, 2=F|u, 3=A|x, 4=B|y, 5=C|lambda
    cells = {
        s.block: s for s in stage_sets(
            -2, tp.fine, tp.offsets, tp.local, tp.pattern, tp.ql.gamma_eq
        )
    }
    assert cells[4].equations == {(3, 2), (4, 2), (5, 4)}
    assert cells[4].unknowns == {(3, 4), (4, 4), (5, 2)}
    assert cells[3].equations == {(2, 0)}
    assert cells[3].unknowns == {(2, 0)}
    assert cells[3].cross_block_inputs == {(5, 2)}
    assert cells[2].equations == frozenset() and cells[2].unknowns == frozenset()
    assert cells[1].equations == frozenset()
    assert cells[1].unknowns == {(0, 1)}

    schedule = render_schedule(
        -6, 2, tp.fine, tp.offsets, tp.local, tp.ql.gamma_eq, tp.pattern
    )
    seen = {(t.stage, t.block): t for t in schedule.tasks}
    expected_cells = {}
    c_pos = (0, 0, 2, 4, 4, 6)
    d_pos = (3, 0, 2, 6, 6, 4)
    members = {1: [0], 2: [1], 3: [2], 4: [3, 4, 5]}
    for k in range(-6, 3):
        for l, poss in members.items():
            eqs = {(p, k + c_pos[p]) for p in poss if k + c_pos[p] >= 0}
            unk = {(p, k + d_pos[p]) for p in poss if k + d_pos[p] >= 0}
            if eqs or unk:
                expected_cells[(k, l)] = (eqs, unk)
    assert set(seen) == set(expected_cells)
    for key, (eqs, unk) in expected_cells.items():
        assert seen[key].equations == eqs, key
        assert seen[key].unknowns == unk, key
    print("PASS criterion 5: stage sets and the staged block schedule")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20250809)
    for trial in range(500):
        n = rng.randint(1, 6)
        sigma = random_sigma(rng, n, max_order=3)
        sm = SignatureMatrix(n=n, sigma=sigma)
        value, assign = brute_force_hvt(sigma)
        hvt = ds.highest_value_transversal(sm)
        assert hvt.value == value, trial
        assert hvt.assignment == assign, trial
        offs = ds.canonical_offsets(sm, hvt)
        # bounded exhaustive search over candidate offset vectors
        bound = int(max(sigma[np.isfinite(sigma)])) + 2
        grids = np.indices((bound + 1,) * n).reshape(n, -1).T  # (M, n)
        normalized = grids.min(axis=1) == 0
        cand = grids[normalized]
        d = np.empty((len(cand), n))
        for j in range(n):
            finite = np.isfinite(sigma[:, j])
            cols = sigma[finite, j][None, :] + cand[:, finite]
            d[:, j] = cols.max(axis=1)
        tight = np.ones(len(cand), dtype=bool)
        for i in range(n):
            j = hvt.assignment[i]
            tight &= d[:, j] - cand[:, i] == sigma[i, j]
        ours_c = np.array(offs.c)
        ours_d = np.array(offs.d)
        assert np.all(ours_c[None, :] <= cand[tight])
        assert np.all(ours_d[None, :] <= d[tight])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "PASS criterion 6: 500 random matrices match enumeration (%.1fs)" % elapsed
    )


def test_criterion_7_underdetermined_counts(tp, random_fleet):
    pend = ds.analyze(load_model("pendulum.dae"))
    lin = ds.analyze(load_model("linear.dae"))
    violations = 0
    for a in [tp, pend, lin] + [a for _, a in random_fleet]:
        part, local = a.fine, a.local
        for l in range(1, part.p + 1):
            positions = list(part.block_positions(l))
            assert min(local.c_hat[pos] for pos in positions) == 0
        for k in range(-max(a.offsets.d) - 2, 3):
            for cell in stage_sets(k, part, a.offsets, local, a.pattern, a.ql.gamma_eq):
                if cell.local_stage < 0 and (cell.equations or cell.unknowns):
                    if not len(cell.equations) < len(cell.unknowns):
                        violations += 1
    assert violations == 0
    print("PASS criterion 7: underdetermined stages always have spare unknowns")


def test_criterion_8_executor(tp):
    start = time.perf_counter()
    pend = ds.analyze(load_model("pendulum.dae"))
    G = 9.8

    rep = ds.solve_to_order(
        pend, values={}, guesses={(0, 0): 0.0, (1, 0): -1.0, (0, 1): 0.0, (1, 1): 0.0}, K=6
    )
    assert abs(rep.derivatives[(2, 0)] + G) < 1e-12
    for (j, r), val in rep.derivatives.items():
        if (j, r) not in ((1, 0), (2, 0)):
            assert abs(val) < 1e-12

    v0 = 0.37
    rep = ds.solve_to_order(
        pend, values={}, guesses={(0, 0): 1.0, (1, 0): 0.0, (0, 1): 0.0, (1, 1): v0}, K=6
    )
    assert abs(rep.derivatives[(2, 0)] - v0**2) < 1e-10
    assert abs(rep.derivatives[(0, 2)] + v0**2) < 1e-10
    assert abs(rep.derivatives[(1, 2)] - G) < 1e-10

    values = {(IX["v"], 0): 0.01, (IX["v"], 1): 0.0, (IX["v"], 2): 0.0}
    guesses = {
        (IX["x"], 0): 0.0,
        (IX["y"], 0): -1.0,
        (IX["x"], 1): 0.0,
        (IX["y"], 1): 0.0,
        (IX["u"], 0): 0.8,
        (IX["v"], 3): 3.0,
    }
    rep = ds.solve_to_order(tp, values, guesses, K=10)
    assert rep.max_residual < 1e-10

    rng = random.Random(321321)
    model = tp.model
    for _ in range(50):
        state = ds.StatePoint()
        for j in range(6):
            for r in range(tp.offsets.d[j] + 1):
                state.set_derivative(j, r, rng.uniform(0.5, 2.0))
        jac = ds.numeric_jacobian(model, tp.sm, tp.offsets, None, state)
        fd = finite_difference_jacobian(model, tp.sm, tp.offsets, state)
        scale = np.maximum(1.0, np.abs(jac))
        assert np.all(np.abs(jac - fd) / scale < 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("PASS criterion 8: executor reproduces consistent points (%.1fs)" % elapsed)
