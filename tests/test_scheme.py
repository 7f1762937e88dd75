import random

import daestruct as ds
from daestruct.scheme import (
    basic_local,
    basic_partition,
    classify_stage,
    fine_block_init,
    render_schedule,
    stage_sets,
)

from conftest import random_model

IX = {"x": 0, "y": 1, "lambda": 2, "u": 3, "v": 4, "mu": 5}


def test_basic_init_two_pendula(two_pendula_analysis):
    a = two_pendula_analysis
    init = a.init_basic
    assert init.values == frozenset()
    expected = set()
    for name, top in [("x", 6), ("y", 6), ("lambda", 4), ("u", 2), ("v", 3), ("mu", 0)]:
        for r in range(top + 1):
            expected.add((IX[name], r))
    assert init.guesses == expected
    assert len(init.guesses) == 27


def test_basic_init_pendulum(pendulum_analysis):
    # globally one equation is nonlinear, so nothing is shaved off the tops
    init = pendulum_analysis.init_basic
    expected = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)}
    assert init.guesses == expected
    assert len(init.guesses) == 7


def test_basic_init_first_order_ode():
    model = ds.parse_model("var x; eq A: Der(x,1) - x = 0;")
    a = ds.analyze(model)
    assert a.ql.gamma_dae == 1
    assert a.init_basic.guesses == {(0, 0)}


def test_fine_init_two_pendula(two_pendula_analysis):
    a = two_pendula_analysis
    assert a.init_fine.guesses == {
        (IX["x"], 0),
        (IX["x"], 1),
        (IX["y"], 0),
        (IX["y"], 1),
        (IX["u"], 0),
        (IX["v"], 3),
    }
    assert a.init_fine.values == {(IX["v"], 0), (IX["v"], 1), (IX["v"], 2)}
    assert len(a.init_fine.values | a.init_fine.guesses) == 9
    assert not (a.init_fine.values & a.init_fine.guesses)


def test_fine_init_block_detail(two_pendula_analysis):
    # per-block reruns: the three-equation block needs guesses only
    a = two_pendula_analysis
    sub = fine_block_init(a.local, a.ql.gamma_block, a.fine)
    assert sub == a.init_fine
    singles = fine_block_init(
        a.local, (1, 1, 1, 1), a.fine
    )  # if every block were linear, the top-order guesses disappear
    assert (IX["v"], 3) not in singles.guesses
    assert (IX["u"], 0) not in singles.guesses


def test_fine_init_closed_form_random():
    # per block: exactly the pairs 0 <= r <= d_hat - gamma, split by
    # whether the local stage has any equations
    rng = random.Random(2718)
    for _ in range(50):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        expected_values = set()
        expected_guesses = set()
        for l in range(1, a.fine.p + 1):
            positions = list(a.fine.block_positions(l))
            gamma = a.ql.gamma_block[l - 1]
            max_c = max(a.local.c_hat[pos] for pos in positions)
            for pos in positions:
                j = a.fine.col_perm[pos]
                dj = a.local.d_hat[pos]
                for r in range(dj - gamma + 1):
                    if r - dj < -max_c:
                        expected_values.add((j, r))
                    else:
                        expected_guesses.add((j, r))
        assert a.init_fine.values == expected_values
        assert a.init_fine.guesses == expected_guesses
        assert len(a.init_fine.values | a.init_fine.guesses) <= len(
            a.init_basic.guesses
        )


def test_stage_sets_at_minus_two(two_pendula_analysis):
    a = two_pendula_analysis
    sets = stage_sets(-2, a.fine, a.offsets, a.local, a.pattern, a.ql.gamma_eq)
    # permuted positions: 0=E|v, 1=D|mu, 2=F|u, 3=A|x, 4=B|y, 5=C|lambda
    by_block = {s.block: s for s in sets}
    assert by_block[4].equations == {(3, 2), (4, 2), (5, 4)}
    assert by_block[4].unknowns == {(3, 4), (4, 4), (5, 2)}
    assert by_block[4].cross_block_inputs == frozenset()
    assert by_block[3].equations == {(2, 0)}
    assert by_block[3].unknowns == {(2, 0)}
    assert by_block[3].cross_block_inputs == {(5, 2)}
    assert by_block[2].equations == frozenset()
    assert by_block[2].unknowns == frozenset()
    assert by_block[1].equations == frozenset()
    assert by_block[1].unknowns == {(0, 1)}


def test_classification_examples(two_pendula_analysis):
    a = two_pendula_analysis
    gamma = a.ql.gamma_eq
    # coupling block at its local stage zero: square and nonlinear
    assert classify_stage(-2, 3, a.fine, a.local, gamma) == ("square", "nonlinear")
    # driven block at stage 0: square nonlinear
    assert classify_stage(0, 1, a.fine, a.local, gamma) == ("square", "nonlinear")
    # three-equation block when only its nonlinear member is undifferentiated
    assert classify_stage(-6, 4, a.fine, a.local, gamma) == (
        "underdetermined",
        "nonlinear",
    )
    # below every equation: skipped entirely
    assert classify_stage(-7, 4, a.fine, a.local, gamma) is None
    assert classify_stage(-3, 1, a.fine, a.local, gamma) is None
    # square linear stage
    assert classify_stage(-4, 4, a.fine, a.local, gamma) == ("square", "linear")
    assert classify_stage(0, 2, a.fine, a.local, gamma) == ("square", "linear")
    # every stage_sets cell carries classify_stage's verdict
    for k in range(-7, 3):
        for cell in stage_sets(k, a.fine, a.offsets, a.local, a.pattern, gamma):
            verdict = classify_stage(k, cell.block, a.fine, a.local, gamma)
            assert (cell.determinacy, cell.linearity) == (
                verdict or ("underdetermined", "linear")
            )


def test_block_schedule_reproduces_expected_cells(two_pendula_analysis):
    a = two_pendula_analysis
    schedule = render_schedule(
        -6, 2, a.fine, a.offsets, a.local, a.ql.gamma_eq, a.pattern
    )
    cells = {(t.stage, t.block): t for t in schedule.tasks}

    def eqs(k, l):
        return cells[(k, l)].equations

    def unk(k, l):
        return cells[(k, l)].unknowns

    # block 4 rows every stage from -6 on: A, B shifted by 4, C by 6
    for k in range(-6, 3):
        expect_eqs = set()
        expect_unk = set()
        for pos, c in ((3, 4), (4, 4), (5, 6)):
            if k + c >= 0:
                expect_eqs.add((pos, k + c))
        for pos, d in ((3, 6), (4, 6), (5, 4)):
            if k + d >= 0:
                expect_unk.add((pos, k + d))
        assert eqs(k, 4) == expect_eqs
        assert unk(k, 4) == expect_unk
    # coupling block enters at stage -2
    assert (-3, 3) not in cells
    for k in range(-2, 3):
        assert eqs(k, 3) == {(2, k + 2)}
        assert unk(k, 3) == {(2, k + 2)}
    # driven pendulum blocks enter at stage 0
    assert (-1, 2) not in cells
    for k in range(0, 3):
        assert eqs(k, 2) == {(1, k)}
        assert unk(k, 2) == {(1, k)}
        assert eqs(k, 1) == {(0, k)}
        assert unk(k, 1) == {(0, k + 3)}
    # pure initial-value cells for the third-order variable
    for k in (-3, -2, -1):
        task = cells[(k, 1)]
        assert task.equations == frozenset()
        assert task.unknowns == {(0, k + 3)}
        assert task.determinacy == "underdetermined"
    # nonlinear markers appear exactly where an undifferentiated nonlinear
    # equation sits
    assert cells[(-6, 4)].linearity == "nonlinear"
    assert cells[(-5, 4)].linearity == "linear"
    assert cells[(-4, 4)].linearity == "linear"
    assert cells[(-2, 3)].linearity == "nonlinear"
    assert cells[(0, 1)].linearity == "nonlinear"
    assert cells[(0, 2)].linearity == "linear"
    assert cells[(1, 1)].linearity == "linear"
    # within a stage the solve order is p..1
    for k in range(-6, 3):
        blocks = [t.block for t in schedule.tasks if t.stage == k]
        assert blocks == sorted(blocks, reverse=True)


def test_basic_schedule_table(two_pendula_analysis):
    a = two_pendula_analysis
    n = a.model.n
    part = basic_partition(n)
    local = basic_local(a.offsets)
    gamma = tuple(1 if e.code.value == "L" else 0 for e in a.ql.global_ql)
    schedule = render_schedule(-6, 2, part, a.offsets, local, gamma, a.pattern)
    cells = {t.stage: t for t in schedule.tasks}
    assert set(cells) == set(range(-6, 3))
    # stage -6: only C, solving x and y
    assert cells[-6].equations == {(2, 0)}
    assert cells[-6].unknowns == {(0, 0), (1, 0)}
    assert cells[-6].determinacy == "underdetermined"
    assert cells[-6].linearity == "nonlinear"
    # stage -2: A'', B'', C4, F with u, lambda'' etc
    assert cells[-2].equations == {(0, 2), (1, 2), (2, 4), (5, 0)}
    assert cells[-2].unknowns == {(0, 4), (1, 4), (2, 2), (3, 0), (4, 1)}
    assert cells[-2].linearity == "nonlinear"
    # stage 0 is square, nonlinear because of the undifferentiated equations
    assert cells[0].determinacy == "square"
    assert cells[0].linearity == "nonlinear"
    assert cells[0].equations == {(0, 4), (1, 4), (2, 6), (3, 0), (4, 0), (5, 2)}
    # every stage k > 0 is one square linear task over all equations
    for k in (1, 2):
        assert cells[k].determinacy == "square"
        assert cells[k].linearity == "linear"
        assert cells[k].equations == {(i, k + a.offsets.c[i]) for i in range(n)}
        assert cells[k].unknowns == {(j, k + a.offsets.d[j]) for j in range(n)}


def test_conservation_between_schemes_random():
    # at every stage the union of block cells equals the single-block cell
    rng = random.Random(31415)
    for _ in range(40):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        part = a.fine
        bpart = basic_partition(model.n)
        blocal = basic_local(a.offsets)
        bgamma = tuple(1 if e.code.value == "L" else 0 for e in a.ql.global_ql)
        pos_of_col = {j: pos for pos, j in enumerate(part.col_perm)}
        for k in range(-max(a.offsets.d) - 1, 3):
            fine_cells = stage_sets(k, part, a.offsets, a.local, a.pattern, a.ql.gamma_eq)
            basic_cells = stage_sets(k, bpart, a.offsets, blocal, a.pattern, bgamma)
            # cross-block inputs: every s0 entry of the block's rows that
            # lies in the columns of a later block
            for cell in fine_cells:
                later_cols = {
                    j for b in part.blocks[cell.block:] for j in b.cols
                }
                expect = {
                    (pos_of_col[j], k + a.offsets.d[j])
                    for i in part.blocks[cell.block - 1].rows
                    for j in later_cols
                    if (i, j) in a.pattern.s0 and k + a.offsets.d[j] >= 0
                }
                assert cell.cross_block_inputs == expect
            fine_eqs = {
                (part.row_perm[pos], r)
                for cell in fine_cells
                for pos, r in cell.equations
            }
            fine_unk = {
                (part.col_perm[pos], r)
                for cell in fine_cells
                for pos, r in cell.unknowns
            }
            assert fine_eqs == set(basic_cells[0].equations)
            assert fine_unk == set(basic_cells[0].unknowns)


def test_underdetermined_stages_have_fewer_equations():
    rng = random.Random(2020)
    checked = 0
    for _ in range(60):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        for k in range(-max(a.offsets.d) - 1, 3):
            cells = stage_sets(k, a.fine, a.offsets, a.local, a.pattern, a.ql.gamma_eq)
            for cell in cells:
                if cell.local_stage < 0:
                    assert len(cell.equations) < len(cell.unknowns) or (
                        not cell.equations and not cell.unknowns
                    )
                    if cell.equations:
                        checked += 1
    assert checked > 2


def test_empty_schedule():
    model = ds.parse_model("var x; eq A: Der(x,1) = 0;")
    a = ds.analyze(model)
    schedule = render_schedule(
        1, 0, a.fine, a.offsets, a.local, a.ql.gamma_eq, a.pattern
    )
    assert schedule.tasks == ()
