import random

import numpy as np
import daestruct as ds
from daestruct.codelist import Binary, Deriv, InputVar, Unary
from daestruct.ql import QlCode, m_sets

from conftest import propagate_offsets, ql_analysis, random_model

INF = float("inf")


def _node(model, pred):
    hits = [r for r, n in enumerate(model.codelist.nodes) if pred(n)]
    assert len(hits) == 1, hits
    return hits[0]


def _pow_of_var(model, j, k=2):
    cl = model.codelist
    return _node(
        model,
        lambda n: isinstance(n, Binary)
        and n.op == "pow"
        and n.lhs == 1 + j
        and int(cl.nodes[n.rhs].value) == k,
    )


def _deriv_of_var(model, j, p):
    return _node(
        model,
        lambda n: isinstance(n, Deriv) and n.arg == 1 + j and n.p == p,
    )


IX = {"x": 0, "y": 1, "lambda": 2, "u": 3, "v": 4, "mu": 5}
EQ = {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "F": 5}


def test_m_sets_global(two_pendula_analysis):
    a = two_pendula_analysis
    m = m_sets(a.sm, a.offsets)
    assert m[EQ["F"]] == {IX["lambda"], IX["u"]}
    assert m[EQ["A"]] == {IX["x"], IX["lambda"]}
    assert m[EQ["B"]] == {IX["y"], IX["lambda"]}
    assert m[EQ["C"]] == {IX["x"], IX["y"]}
    assert m[EQ["D"]] == {IX["u"], IX["mu"]}
    assert m[EQ["E"]] == {IX["v"], IX["mu"]}
    assert all(m[i] for i in range(6))


def test_m_sets_blockwise(two_pendula_analysis):
    a = two_pendula_analysis
    m = m_sets(a.sm, a.offsets, a.fine)
    assert m[EQ["F"]] == {IX["u"]}
    assert m[EQ["D"]] == {IX["mu"]}
    assert m[EQ["E"]] == {IX["v"]}
    assert m[EQ["A"]] == {IX["x"], IX["lambda"]}


def test_offsets_for_coupling_equation_global(two_pendula, two_pendula_analysis):
    # the coupling equation's offsets, tight columns lambda and u
    a = two_pendula_analysis
    model = two_pendula
    m = m_sets(a.sm, a.offsets)[EQ["F"]]
    alpha = propagate_offsets(model.codelist, EQ["F"], m, a.sm)
    assert alpha[1 + IX["lambda"]] == 2
    assert alpha[1 + IX["u"]] == 0
    assert alpha[1 + IX["v"]] == INF
    u2 = _pow_of_var(model, IX["u"])
    v2 = _pow_of_var(model, IX["v"])
    cl = model.codelist
    u2v2 = _node(
        model,
        lambda n: isinstance(n, Binary) and n.op == "add" and n.lhs == u2 and n.rhs == v2,
    )
    assert alpha[u2v2] == 0
    lam2 = _deriv_of_var(model, IX["lambda"], 2)
    assert alpha[lam2] == 0
    big = _node(
        model,
        lambda n: isinstance(n, Binary)
        and n.op == "pow"
        and isinstance(cl.nodes[n.lhs], Binary)
        and cl.nodes[n.lhs].op == "add",
    )
    assert alpha[big] == 2  # (L + c*lambda)^2
    assert alpha[cl.output_indices[EQ["F"]]] == 0


def test_offsets_and_codes_for_first_equation(two_pendula, two_pendula_analysis):
    a = two_pendula_analysis
    model = two_pendula
    m = m_sets(a.sm, a.offsets)[EQ["A"]]
    res = ql_analysis(model.codelist, EQ["A"], m, a.sm)
    alpha = res.offsets
    assert alpha[1 + IX["x"]] == 2
    assert alpha[1 + IX["lambda"]] == 0
    assert alpha[_deriv_of_var(model, IX["x"], 2)] == 0
    mul = _node(
        model,
        lambda n: isinstance(n, Binary)
        and n.op == "mul"
        and n.lhs == 1 + IX["x"]
        and n.rhs == 1 + IX["lambda"],
    )
    assert alpha[mul] == 0
    assert alpha[model.codelist.output_indices[EQ["A"]]] == 0
    assert res.code is QlCode.L
    assert res.first_nonlinear is None


def test_coupling_equation_nonlinear_global(two_pendula, two_pendula_analysis):
    a = two_pendula_analysis
    m = m_sets(a.sm, a.offsets)[EQ["F"]]
    res = ql_analysis(two_pendula.codelist, EQ["F"], m, a.sm)
    assert res.code is QlCode.N
    # the first nonlinear node is the u^2 factor of u^2 + v^2
    assert res.first_nonlinear == _pow_of_var(two_pendula, IX["u"])


def test_coupling_equation_block_scope(two_pendula, two_pendula_analysis):
    a = two_pendula_analysis
    model = two_pendula
    m = m_sets(a.sm, a.offsets, a.fine)[EQ["F"]]
    res = ql_analysis(model.codelist, EQ["F"], m, a.sm)
    alpha = res.offsets
    assert alpha[1 + IX["v"]] == INF
    assert alpha[1 + IX["u"]] == 0
    assert alpha[1 + IX["lambda"]] == INF
    # lambda'' is independent of the block's own unknown u
    assert alpha[_deriv_of_var(model, IX["lambda"], 2)] == INF
    assert res.code is QlCode.N
    assert res.first_nonlinear == _pow_of_var(model, IX["u"])


def test_linear_even_with_independent_cube(two_pendula, two_pendula_analysis):
    # y'' + y*lambda + (x')^3 - G: the cube is offset-positive, so linear
    a = two_pendula_analysis
    m = m_sets(a.sm, a.offsets)[EQ["B"]]
    res = ql_analysis(two_pendula.codelist, EQ["B"], m, a.sm)
    assert res.code is QlCode.L
    alpha = res.offsets
    assert alpha[_deriv_of_var(two_pendula, IX["x"], 1)] == INF


def test_global_codes(two_pendula_analysis):
    codes = [e.code.value for e in two_pendula_analysis.ql.global_ql]
    assert codes == ["L", "L", "N", "L", "N", "N"]


def test_blockwise_codes_and_flags(two_pendula_analysis):
    a = two_pendula_analysis
    codes = [e.code.value for e in a.ql.blockwise]
    assert codes == ["L", "L", "N", "L", "N", "N"]
    assert a.ql.gamma_eq == (1, 1, 0, 1, 0, 0)
    assert a.ql.gamma_block == (0, 1, 0, 1)
    assert a.ql.gamma_dae == 0


def test_trivial_linear_dae_flag():
    model = ds.parse_model("var x; eq A: Der(x,1) - t = 0;")
    a = ds.analyze(model)
    assert a.ql.gamma_dae == 1


def test_encoded_block_matrix_cells(two_pendula, two_pendula_analysis):
    # spot-check the vectorized encoded offsets (block scope) on the shared
    # code list: columns A..F per node, -1 marks nonlinear, inf independent
    a = two_pendula_analysis
    model = two_pendula
    enc = a.ql.encoded_block
    A, B, C, D, E, F = range(6)

    def cell(r, i):
        return enc[r, i]

    # input rows
    assert cell(1 + IX["x"], A) == 2 and cell(1 + IX["x"], C) == 0
    assert cell(1 + IX["x"], B) == INF
    assert cell(1 + IX["lambda"], A) == 0 and cell(1 + IX["lambda"], B) == 0
    assert cell(1 + IX["lambda"], F) == INF  # lambda is outside that block
    assert cell(1 + IX["u"], F) == 0 and cell(1 + IX["u"], D) == INF
    assert cell(1 + IX["v"], E) == 3 and cell(1 + IX["v"], F) == INF
    assert cell(1 + IX["mu"], D) == 0 and cell(1 + IX["mu"], E) == INF

    x2 = _pow_of_var(model, IX["x"])
    y2 = _pow_of_var(model, IX["y"])
    xpp = _deriv_of_var(model, IX["x"], 2)
    xp = _deriv_of_var(model, IX["x"], 1)
    assert cell(xpp, A) == 0 and cell(xpp, C) == -2
    assert cell(xp, A) == 1 and cell(xp, C) == -1
    assert cell(x2, A) == 2 and cell(x2, C) == -1  # first nonlinear node of C
    assert cell(y2, A) == INF and cell(y2, B) == 2 and cell(y2, C) == -1

    upp = _deriv_of_var(model, IX["u"], 2)
    assert cell(upp, D) == INF and cell(upp, F) == -2

    vppp = _deriv_of_var(model, IX["v"], 3)
    v3sq = _node(
        model,
        lambda n: isinstance(n, Binary) and n.op == "pow" and n.lhs == vppp,
    )
    assert cell(vppp, E) == 0
    assert cell(v3sq, E) == -1
    vmu = _node(
        model,
        lambda n: isinstance(n, Binary)
        and n.op == "mul"
        and n.lhs == 1 + IX["v"]
        and n.rhs == 1 + IX["mu"],
    )
    assert cell(vmu, D) == 0 and cell(vmu, E) == 3

    lam2 = _deriv_of_var(model, IX["lambda"], 2)
    assert cell(lam2, A) == -2 and cell(lam2, B) == -2 and cell(lam2, F) == INF

    # boxed outputs: 0 encodes linear, -1 nonlinear
    outs = model.codelist.output_indices
    assert [cell(outs[i], i) for i in range(6)] == [0, 0, -1, 0, -1, -1]


def test_vectorized_equals_per_equation_on_random_models():
    rng = random.Random(77)
    agreements = 0
    for _ in range(60):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        m_g = m_sets(a.sm, a.offsets)
        m_b = m_sets(a.sm, a.offsets, a.fine)
        for i in range(model.n):
            per_g = ql_analysis(model.codelist, i, m_g[i], a.sm)
            per_b = ql_analysis(model.codelist, i, m_b[i], a.sm)
            assert per_g.code is a.ql.global_ql[i].code
            assert per_b.code is a.ql.blockwise[i].code
            assert per_g.first_nonlinear == a.ql.global_ql[i].first_nonlinear
            assert per_b.first_nonlinear == a.ql.blockwise[i].first_nonlinear
            agreements += 1
    assert agreements > 80


def test_independence_marker_consistency_random():
    # a node is independent exactly when its offset is positive; the
    # encoded matrix may only replace zeros with the nonlinear marker
    rng = random.Random(123)
    for _ in range(30):
        model = random_model(rng, n_max=3, depth=4)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        cl = model.codelist
        for i in range(model.n):
            cone = cl.cone(cl.output_indices[i])
            alpha = propagate_offsets(cl, i, a.ql.global_ql[i].m_set, a.sm)
            enc = a.ql.encoded_global[:, i]
            for r in cone:
                if enc[r] == -1:
                    assert alpha[r] == 0
                else:
                    assert enc[r] == alpha[r]
                if alpha[r] > 0:
                    assert enc[r] > 0  # independent nodes stay unmarked


def test_early_exit_soundness_random():
    # once any node of the cone is nonlinear, the output must be nonlinear
    rng = random.Random(321)
    for _ in range(40):
        model = random_model(rng, n_max=3, depth=4)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        for i in range(model.n):
            eq = a.ql.global_ql[i]
            if eq.first_nonlinear is not None:
                assert eq.code is QlCode.N


def test_differentiated_equations_are_linear():
    # wrapping any equation body in a time derivative makes it linear in
    # its leading derivatives
    rng = random.Random(555)
    checked = 0
    for _ in range(40):
        base = random_model(rng, n_max=3, depth=3)
        b = ds.ModelBuilder()
        xs = b.variables(*base.variable_names)

        def copy_expr(cl, r, memo):
            node = cl.nodes[r]
            if isinstance(node, InputVar):
                return xs[node.j]
            if isinstance(node, ds.codelist.InputTime):
                return b.time
            if isinstance(node, ds.codelist.Const):
                return b._coerce(node.value)
            if isinstance(node, Deriv):
                return copy_expr(cl, node.arg, memo).der(node.p)
            if isinstance(node, Unary):
                inner = copy_expr(cl, node.arg, memo)
                if node.op == "identity":
                    return inner
                if node.op == "neg":
                    return -inner
                return getattr(ds, node.op)(inner)
            lhs = copy_expr(cl, node.lhs, memo)
            if node.op == "pow":
                return lhs ** int(cl.nodes[node.rhs].value)
            rhs = copy_expr(cl, node.rhs, memo)
            return {
                "add": lhs + rhs,
                "sub": lhs - rhs,
                "mul": lhs * rhs,
                "div": lhs / rhs,
            }[node.op]

        cl = base.codelist
        for i, name in enumerate(base.equation_names):
            body = copy_expr(cl, cl.output_indices[i], {})
            b.equation(name, body.der(1))
        model = b.build()
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        for eq in a.ql.global_ql:
            assert eq.code is QlCode.L
            checked += 1
    assert checked > 30


def test_block_nonlinearity_implies_global_random():
    rng = random.Random(999)
    for _ in range(60):
        model = random_model(rng)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        for i in range(model.n):
            if a.ql.blockwise[i].code is QlCode.N:
                assert a.ql.global_ql[i].code is QlCode.N


def test_empty_block_scope_defaults_linear(two_pendula_analysis):
    # the operation is defined for any equation/column-set combination;
    # an empty tight set yields all-infinite offsets and a linear verdict
    a = two_pendula_analysis
    res = ql_analysis(
        two_pendula_analysis.model.codelist, EQ["F"], frozenset(), a.sm
    )
    assert res.code is QlCode.L
    assert np.all(np.isinf(res.offsets[res.offsets > 0]))


def test_numeric_nonlinearity_implies_formal_nonlinear():
    # independent semantic oracle: perturb only the derivatives the
    # equation is solved for and watch its Jacobian row; if the entries
    # move, the dependence is truly nonlinear and the formal verdict must
    # be N.  (The converse does not hold: formally counted terms may
    # cancel numerically.)
    import math

    from daestruct.executor import ExecutorError, StatePoint, _evaluate

    rng = random.Random(4321)

    def row_entries(model, a, i, state):
        cl = model.codelist
        out = cl.output_indices[i]
        entries = []
        for j in sorted(a.ql.global_ql[i].m_set):
            sigma = int(a.sm.sigma[i, j])
            h = 1e-6
            plus = state.copy()
            plus.set_derivative(j, sigma, state.derivative(j, sigma) + h)
            minus = state.copy()
            minus.set_derivative(j, sigma, state.derivative(j, sigma) - h)
            fp = _evaluate(cl, plus, {out: 0})[out][0][0]
            fm = _evaluate(cl, minus, {out: 0})[out][0][0]
            entries.append((fp - fm) / (2 * h))
        return np.array(entries)

    checked = 0
    for _ in range(80):
        model = random_model(rng, n_max=3, depth=3)
        try:
            a = ds.analyze(model)
        except ds.StructurallyIllPosed:
            continue
        base = StatePoint()
        for j in range(model.n):
            for r in range(a.offsets.d[j] + 1):
                base.set_derivative(j, r, rng.uniform(0.7, 1.4))
        for i in range(model.n):
            # vary only the stage-zero unknowns of this equation
            other = base.copy()
            for j in sorted(a.ql.global_ql[i].m_set):
                sigma = int(a.sm.sigma[i, j])
                other.set_derivative(j, sigma, rng.uniform(2.1, 3.0))
            try:
                r1 = row_entries(model, a, i, base)
                r2 = row_entries(model, a, i, other)
            except ExecutorError:
                continue  # random state outside a log/sqrt/div domain
            if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))):
                continue
            scale = np.maximum(1.0, np.abs(r1))
            if np.any(np.abs(r1 - r2) / scale > 1e-3):
                assert a.ql.global_ql[i].code is QlCode.N
                checked += 1
    assert checked > 15


def test_product_of_two_stage_zero_operands_is_nonlinear():
    model = ds.parse_model("var x, y; eq A: x*y = 0; eq B: x - y = 0;")
    a = ds.analyze(model)
    assert a.ql.global_ql[0].code is QlCode.N
    assert a.ql.global_ql[1].code is QlCode.L


def test_division_by_stage_zero_denominator_is_nonlinear():
    model = ds.parse_model("var x, y; eq A: y/x = 0; eq B: x/2.0 - y = 0;")
    a = ds.analyze(model)
    assert a.ql.global_ql[0].code is QlCode.N
    assert a.ql.global_ql[1].code is QlCode.L
