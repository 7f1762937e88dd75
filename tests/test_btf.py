import random

import numpy as np
import pytest

import daestruct as ds
from daestruct.sigma import SignatureMatrix

from conftest import is_strong_hall, random_model, random_sigma


def _block_sets(part):
    return [(set(b.rows), set(b.cols)) for b in part.blocks]


def test_coarse_two_pendula(two_pendula_analysis):
    a = two_pendula_analysis
    assert _block_sets(a.coarse) == [
        ({3, 4, 5}, {3, 4, 5}),  # the driven pendulum: D, E, F / u, v, mu
        ({0, 1, 2}, {0, 1, 2}),  # the plain pendulum: A, B, C / x, y, lambda
    ]


def test_fine_two_pendula(two_pendula_analysis):
    a = two_pendula_analysis
    assert _block_sets(a.fine) == [
        ({4}, {4}),  # E | v
        ({3}, {5}),  # D | mu
        ({5}, {3}),  # F | u
        ({0, 1, 2}, {0, 1, 2}),  # A, B, C | x, y, lambda
    ]
    assert a.fine.row_perm == (4, 3, 5, 0, 1, 2)
    assert a.fine.col_perm == (4, 5, 3, 0, 1, 2)


def test_pendulum_block_is_irreducible(pendulum_analysis):
    assert pendulum_analysis.fine.p == 1
    assert pendulum_analysis.coarse.p == 1


def test_diagonal_pattern_gives_singletons_in_source_order():
    sm = SignatureMatrix(n=4, sigma=np.zeros((4, 4)) + np.where(np.eye(4), 0.0, -np.inf))
    hvt = ds.highest_value_transversal(sm)
    offs = ds.canonical_offsets(sm, hvt)
    pattern = ds.jacobian_pattern(sm, offs)
    fine = ds.fine_btf(pattern, hvt)
    assert [b.rows for b in fine.blocks] == [(0,), (1,), (2,), (3,)]
    coarse = ds.coarse_btf(pattern)
    assert [b.rows for b in coarse.blocks] == [(0,), (1,), (2,), (3,)]


def test_dense_pattern_single_block():
    sm = SignatureMatrix(n=3, sigma=np.zeros((3, 3)))
    hvt = ds.highest_value_transversal(sm)
    offs = ds.canonical_offsets(sm, hvt)
    pattern = ds.jacobian_pattern(sm, offs)
    assert ds.coarse_btf(pattern).p == 1
    assert ds.fine_btf(pattern, hvt).p == 1


def test_local_offsets_two_pendula(two_pendula_analysis):
    a = two_pendula_analysis
    assert a.local.c_hat == (0, 0, 0, 0, 0, 2)
    assert a.local.d_hat == (3, 0, 0, 2, 2, 0)
    assert a.local.lead_times == (0, 0, 2, 4)


def test_local_offsets_singleton_block():
    model = ds.parse_model("var x; eq A: Der(x,1) = 0;")
    a = ds.analyze(model)
    assert a.local.c_hat == (0,)
    assert a.local.d_hat == (1,)
    assert a.local.lead_times == (0,)


def test_strong_hall_pendulum_block(two_pendula_analysis):
    a = two_pendula_analysis
    block = a.fine.blocks[3]
    entries = {
        (block.rows.index(i), block.cols.index(j))
        for (i, j) in a.pattern.s0
        if i in block.rows and j in block.cols
    }
    assert is_strong_hall(entries, 3)


def test_strong_hall_rejects_decomposable():
    assert not is_strong_hall({(0, 0), (1, 1)}, 2)


def test_strong_hall_on_fine_blocks_of_random_models():
    rng = random.Random(512)
    checked = 0
    for _ in range(40):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        for block in a.fine.blocks:
            entries = {
                (block.rows.index(i), block.cols.index(j))
                for (i, j) in a.pattern.s0
                if i in block.rows and j in block.cols
            }
            assert is_strong_hall(entries, block.size)
            checked += 1
    assert checked > 20


def test_below_block_rule_fine(two_pendula_analysis):
    # strictly below a diagonal block the offsets are slack
    a = two_pendula_analysis
    part = a.fine
    block_of_pos_row = {}
    block_of_pos_col = {}
    for l in range(1, part.p + 1):
        for pos in part.block_positions(l):
            block_of_pos_row[pos] = l
            block_of_pos_col[pos] = l
    for pi in range(6):
        for pj in range(6):
            if block_of_pos_row[pi] > block_of_pos_col[pj]:
                i, j = part.row_perm[pi], part.col_perm[pj]
                v = a.sm.sigma[i, j]
                if np.isfinite(v):
                    assert a.offsets.d[j] - a.offsets.c[i] > int(v)


def test_fine_refines_coarse_random():
    rng = random.Random(1000)
    for _ in range(40):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        coarse_of_row = {}
        for l, b in enumerate(a.coarse.blocks):
            for i in b.rows:
                coarse_of_row[i] = l
        for fb in a.fine.blocks:
            owners = {coarse_of_row[i] for i in fb.rows}
            assert len(owners) == 1
        # uniform nonnegative lead times come with local offsets already
        assert all(k >= 0 for k in a.local.lead_times)


def test_uniformity_violation_on_mispaired_partition(two_pendula_analysis):
    # pairing the second equation with the first variable is a legal-looking
    # partition whose row and column lead times disagree
    from daestruct.btf import Block, BlockPartition

    a = two_pendula_analysis
    bad = BlockPartition(
        n=6,
        blocks=(
            Block(rows=(1,), cols=(0,)),  # sigma finite but not tight there
            Block(rows=(0,), cols=(2,)),
            Block(rows=(2,), cols=(1,)),
            Block(rows=(3,), cols=(5,)),
            Block(rows=(4,), cols=(4,)),
            Block(rows=(5,), cols=(3,)),
        ),
        row_perm=(1, 0, 2, 3, 4, 5),
        col_perm=(0, 2, 1, 5, 4, 3),
    )
    with pytest.raises(ds.UniformityViolation):
        ds.local_offsets(a.sm, bad, a.offsets)


def test_random_fine_blocks_upper_triangular():
    rng = random.Random(31337)
    for _ in range(40):
        n = rng.randint(1, 6)
        sm = SignatureMatrix(n=n, sigma=random_sigma(rng, n))
        hvt = ds.highest_value_transversal(sm)
        offs = ds.canonical_offsets(sm, hvt)
        pattern = ds.jacobian_pattern(sm, offs)
        part = ds.fine_btf(pattern, hvt)
        pos_row = {i: p for p, i in enumerate(part.row_perm)}
        pos_col = {j: p for p, j in enumerate(part.col_perm)}
        block_of = {}
        for l in range(1, part.p + 1):
            for pos in part.block_positions(l):
                block_of[pos] = l
        for (i, j) in pattern.s0:
            assert block_of[pos_row[i]] <= block_of[pos_col[j]]
