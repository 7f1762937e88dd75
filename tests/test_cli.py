import json
from pathlib import Path

import pytest

from daestruct.cli import main

from conftest import MODELS

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_report(capsys):
    code, out, err = run(capsys, "analyze", str(MODELS / "two_pendula.dae"))
    assert code == 0 and err == ""
    assert "structural index: 7" in out
    assert "degrees of freedom: 5" in out
    assert "coarse blocks: {D, E, F | u, v, mu}; {A, B, C | x, y, lambda}" in out
    assert "fine block form (4 blocks" in out
    assert "initial values : v^(<=2)" in out
    assert "initial guesses: x^(<=1), y^(<=1), u, v^(3)" in out
    assert "2\u2022" in out  # transversal marker on the first row
    assert "solve A, B, C^(2) for x^(2), y^(2), lambda" in out
    assert "solve F for u  using lambda^(2)" in out


def test_analyze_json_report(capsys):
    code, out, err = run(
        capsys, "analyze", str(MODELS / "two_pendula.dae"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [b["size"] for b in doc["blocks"]] == [1, 1, 1, 3]
    assert doc["lead_times"] == [0, 0, 2, 4]
    assert doc["metrics"] == {"index": 7, "dof": 5}
    assert doc["offsets"] == {"c": [4, 4, 6, 0, 0, 2], "d": [6, 6, 4, 2, 3, 0]}
    assert doc["hvt"] == [0, 2, 1, 5, 4, 3]
    assert doc["sigma"][0] == [2, None, 0, None, None, None]
    assert doc["ql"]["per_block"] == [0, 1, 0, 1]
    assert doc["ql"]["dae"] == 0
    assert [e["global"] for e in doc["ql"]["per_equation"]] == [
        "L", "L", "N", "L", "N", "N",
    ]
    assert {(p["variable"], p["order"]) for p in doc["init"]["values"]} == {
        ("v", 0), ("v", 1), ("v", 2),
    }
    assert len(doc["init"]["guesses"]) == 6
    assert doc["blocks"][3]["rows"] == ["A", "B", "C"]
    assert doc["blocks"][3]["c_hat"] == [0, 0, 2]
    assert doc["blocks"][3]["d_hat"] == [2, 2, 0]


def test_json_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(
        capsys, "analyze", str(MODELS / "two_pendula.dae"), "--format", "json"
    )
    assert code == 0
    schema = json.loads(SCHEMA.read_text())
    jsonschema.validate(json.loads(out), schema)
    code, out, _ = run(
        capsys, "analyze", str(MODELS / "linear.dae"), "--format", "json"
    )
    jsonschema.validate(json.loads(out), schema)


def test_text_and_json_agree_on_facts(capsys):
    _, text, _ = run(capsys, "analyze", str(MODELS / "pendulum.dae"))
    _, raw, _ = run(capsys, "analyze", str(MODELS / "pendulum.dae"), "--format", "json")
    doc = json.loads(raw)
    assert ("structural index: %d" % doc["metrics"]["index"]) in text
    assert ("degrees of freedom: %d" % doc["metrics"]["dof"]) in text
    assert ("fine block form (%d blocks" % len(doc["blocks"])) in text


def test_analyze_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", str(MODELS / "two_pendula.dae"), "--format", "json")
    _, out2, _ = run(capsys, "analyze", str(MODELS / "two_pendula.dae"), "--format", "json")
    assert out1 == out2
    _, t1, _ = run(capsys, "analyze", str(MODELS / "two_pendula.dae"))
    _, t2, _ = run(capsys, "analyze", str(MODELS / "two_pendula.dae"))
    assert t1 == t2


@pytest.mark.parametrize("model", ["pendulum", "two_pendula", "linear"])
@pytest.mark.parametrize(
    "suffix, extra",
    [("txt", []), ("json", ["--format", "json"]), ("stages.txt", ["--stages=-3..2"])],
)
def test_analyze_matches_golden(capsys, model, suffix, extra):
    code, out, err = run(capsys, "analyze", str(MODELS / ("%s.dae" % model)), *extra)
    assert code == 0 and err == ""
    assert out == (GOLDEN / ("%s.%s" % (model, suffix))).read_text(encoding="utf-8")


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dae"
    bad.write_text("var x; eq A: x + = 0;")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "error:" in err


def test_analyze_ill_posed_exit_code(capsys):
    code, _, err = run(capsys, "analyze", str(MODELS / "ill_posed.dae"))
    assert code == 3
    assert "ill posed" in err


def test_analyze_stage_range(capsys):
    code, out, _ = run(
        capsys, "analyze", str(MODELS / "two_pendula.dae"), "--stages=-6..-6"
    )
    assert code == 0
    assert "stage  -6" in out
    assert "stage  -5" not in out


def test_solve_equilibrium(tmp_path, capsys):
    init = tmp_path / "pend.init"
    init.write_text(
        "guess x 0 0.0\nguess y 0 -1.0\nguess x 1 0.0\nguess y 1 0.0\n"
    )
    code, out, err = run(
        capsys,
        "solve",
        str(MODELS / "pendulum.dae"),
        "--order",
        "3",
        "--init",
        str(init),
    )
    assert code == 0, err
    lines = dict()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] != "max_residual":
            lines[(parts[0], int(parts[1]))] = float(parts[2])
    assert lines[("lambda", 0)] == pytest.approx(-9.8)
    assert lines[("y", 0)] == pytest.approx(-1.0)
    assert all(
        abs(v) < 1e-12
        for (n, r), v in lines.items()
        if (n, r) not in (("y", 0), ("lambda", 0))
    )


def test_solve_json_and_swing_values(tmp_path, capsys):
    init = tmp_path / "swing.init"
    init.write_text(
        "guess x 0 1.0\nguess y 0 0.0\nguess x 1 0.0\nguess y 1 0.37\n"
    )
    code, out, _ = run(
        capsys,
        "solve",
        str(MODELS / "pendulum.dae"),
        "--order",
        "4",
        "--init",
        str(init),
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["derivatives"]["lambda"][0] == pytest.approx(0.37**2, abs=1e-10)
    assert doc["derivatives"]["x"][2] == pytest.approx(-(0.37**2), abs=1e-10)
    assert doc["derivatives"]["y"][2] == pytest.approx(9.8, abs=1e-10)
    assert doc["max_residual"] < 1e-10


def test_solve_missing_init_lists_pairs(tmp_path, capsys):
    init = tmp_path / "partial.init"
    init.write_text(
        "v 0 0.01\nv 1 0.0\n"
        "guess x 0 0.0\nguess y 0 -1.0\nguess x 1 0.0\nguess y 1 0.0\n"
        "guess u 0 0.8\nguess v 3 3.0\n"
    )
    code, _, err = run(
        capsys,
        "solve",
        str(MODELS / "two_pendula.dae"),
        "--order",
        "2",
        "--init",
        str(init),
    )
    assert code == 5
    assert "v^(2)" in err


def test_solve_executor_failure_exit_code(tmp_path, capsys):
    model = tmp_path / "singular.dae"
    model.write_text(
        "var x, y; eq A: Der(x,1) + y = 0; eq B: Der(x,1) + y - 1.0 = 0;"
    )
    init = tmp_path / "s.init"
    init.write_text("x 0 1.0\n")
    code, _, err = run(
        capsys, "solve", str(model), "--order", "1", "--init", str(init)
    )
    assert code == 4
    assert "singular" in err.lower()


def test_solve_basic_scheme(tmp_path, capsys):
    init = tmp_path / "full.init"
    lines = [
        "guess x 0 1.0",
        "guess y 0 0.0",
        "guess x 1 0.0",
        "guess y 1 0.37",
        "guess x 2 0.0",
        "guess y 2 0.0",
        "guess lambda 0 0.0",
    ]
    init.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        capsys,
        "solve",
        str(MODELS / "pendulum.dae"),
        "--order",
        "3",
        "--init",
        str(init),
        "--scheme",
        "basic",
    )
    assert code == 0, err
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] != "max_residual":
            rows[(parts[0], int(parts[1]))] = float(parts[2])
    assert rows[("lambda", 0)] == pytest.approx(0.37**2, abs=1e-10)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.dae")
    assert code == 2
