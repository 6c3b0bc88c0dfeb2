import json
import math
import re
import subprocess
import sys

import pytest

from jsrkit.cli import COMMANDS, main

DIAG_DOC = {
    "dim": 2,
    "matrices": [
        {"name": "A1", "re": [[3, 0], [0, 1]]},
        {"name": "A2", "re": [[1, 0], [0, 3]]},
    ],
}

NILPOTENT_DOC = {
    "dim": 2,
    "matrices": [
        {"name": "A1", "re": [[0, 1], [0, 0]]},
        {"name": "A2", "re": [[0, 0], [1, 0]]},
    ],
}


def run_cli(*args, expect=0):
    out = subprocess.run(
        [sys.executable, "-m", "jsrkit.cli", *args],
        capture_output=True,
        text=True,
    )
    assert out.returncode == expect, (out.returncode, out.stderr)
    return out


def run_json(*args):
    out = run_cli(*args)
    return json.loads(out.stdout)


@pytest.fixture
def diag_file(tmp_path):
    p = tmp_path / "diag.json"
    p.write_text(json.dumps(DIAG_DOC))
    return str(p)


@pytest.fixture
def nilpotent_file(tmp_path):
    p = tmp_path / "nilpotent.json"
    p.write_text(json.dumps(NILPOTENT_DOC))
    return str(p)


def test_estimate_report_shape(diag_file):
    doc = run_json("estimate", "--input", diag_file)
    assert doc["command"] == "estimate"
    assert re.fullmatch(r"[0-9a-f]{64}", doc["input_sha256"])
    jsr = doc["results"]["jsr"]
    assert jsr["lower"] == 3.0
    assert jsr["upper"] == pytest.approx(3.0, abs=1e-12)
    assert jsr["lower_witness"] == [1]
    assert jsr["stop_reason"] == "frontier_empty"
    assert doc["timings"]["total_s"] >= 0.0
    # every tunable is echoed back in the config block
    for key in ("gap", "budget", "max_depth"):
        assert key in doc["config"]


def test_estimate_output_file(diag_file, tmp_path):
    out_file = tmp_path / "report.json"
    run_cli("estimate", "--input", diag_file, "--output", str(out_file))
    doc = json.loads(out_file.read_text())
    assert doc["results"]["jsr"]["lower"] == 3.0


def test_floats_survive_json_round_trip():
    doc = run_json("estimate", "--family", "hmst", "--alpha", "0.5",
                   "--gap", "0.01")
    lower = doc["results"]["jsr"]["lower"]
    # serialization must keep full double precision
    assert lower == float(repr(lower))
    assert 1.0 < lower < 2.0


def test_bounds_command(nilpotent_file):
    doc = run_json("bounds", "--input", nilpotent_file, "--depth", "2",
                   "--max-period", "2")
    assert doc["results"]["upper_at_depth"] == pytest.approx(1.0, abs=1e-12)
    assert doc["results"]["lower_periodic"] == pytest.approx(1.0, abs=1e-12)
    assert doc["results"]["lower_witness"] == [1, 2]


def test_bounds_command_encloses_readme_example(diag_file):
    # the README's set: JSR exactly 3, the raw radius of A1; at depth 5
    # exp(log(3**5)/5) rounds to nearest below 3
    results = run_json("bounds", "--input", diag_file, "--depth", "5")["results"]
    assert results["lower_periodic"] == 3.0
    assert results["lower_witness"] == [1]
    assert results["lower_periodic"] <= results["upper_at_depth"]
    jsr = run_json("estimate", "--input", diag_file)["results"]["jsr"]
    assert jsr["lower"] == results["lower_periodic"]


def test_triangularise_command(diag_file):
    doc = run_json("triangularise", "--input", diag_file)
    tri = doc["results"]["triangularisation"]
    assert tri["block_dim"] == 1
    assert tri["residual"] <= 1e-10
    for block in tri["corner_blocks"]:
        for part in ("re", "im"):
            assert max(abs(x) for row in block[part] for x in row) <= 1e-10


def test_triangularise_irreducible_is_input_error(nilpotent_file):
    out = run_cli("triangularise", "--input", nilpotent_file, expect=2)
    assert out.stderr.strip()


def test_barabanov_command():
    doc = run_json("barabanov", "--family", "hmst", "--alpha", "1.0",
                   "--resolution", "512")
    golden = (1 + math.sqrt(5)) / 2
    assert doc["results"]["rho_hat"] == pytest.approx(golden, abs=1e-6)
    assert doc["results"]["residual"] <= 1e-6
    assert doc["results"]["norm"]["kind"] == "angular_grid"


def test_mather_command(diag_file, tmp_path):
    dot_file = tmp_path / "graph.dot"
    doc = run_json("mather", "--input", diag_file, "--depth", "8",
                   "--dot", str(dot_file))
    assert doc["results"]["survivors_max_depth"] == ["11111111", "22222222"]
    assert doc["results"]["diagnostic"] == {"count": 2, "kind": "MultipleSCC"}
    assert doc["results"]["certified_by"] == "max_entry"
    assert dot_file.read_text().startswith("digraph")


def test_stability_command(nilpotent_file):
    doc = run_json("stability", "--input", nilpotent_file, "--trials", "256",
                   "--horizon", "64")
    assert doc["results"]["markov"] == "ZeroAbsorption"
    assert doc["results"]["periodic"] == "CounterexampleWord"


def test_stability_config_echoes_the_seed_in_use(tmp_path):
    chained = dict(DIAG_DOC, chain={"transition": [[0.5, 0.5], [0.5, 0.5]],
                                    "initial": [0.5, 0.5], "seed": 5})
    p = tmp_path / "chained.json"
    p.write_text(json.dumps(chained))
    short = ("--trials", "8", "--horizon", "16")
    doc = run_json("stability", "--input", str(p), *short)
    assert doc["config"]["seed"] == 5
    assert doc["results"]["markov_estimate"]["seed"] == 5
    # the chain block sets its own seed, so the flag beside it is an error
    out = run_cli("stability", "--input", str(p), "--seed", "3", *short, expect=2)
    assert "--seed" in out.stderr
    doc = run_json("stability", "--family", "hmst", "--alpha", "1.0", *short)
    assert doc["config"]["seed"] == doc["results"]["markov_estimate"]["seed"] == 0


def test_one_ratio_command():
    doc = run_json("one-ratio", "--family", "hmst", "--alpha", "1.0",
                   "--symbol", "1", "--max-period", "8")
    assert doc["results"]["gamma"] == 0.5
    assert doc["results"]["unique"] is True


def test_one_ratio_grid_csv(tmp_path):
    csv_file = tmp_path / "curve.csv"
    doc = run_json("one-ratio", "--family", "hmst", "--grid", "0.5:1.0:0.25",
                   "--symbol", "1", "--csv", str(csv_file))
    assert doc["results"]["points"] == 3
    assert doc["results"]["max_adjacent_jump"] <= 0.25
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "alpha,gamma,spread,unique,witness"
    assert len(lines) == 4
    assert lines[3].startswith("1.0,0.5,")


def test_one_ratio_grid_without_csv_prints_csv():
    out = run_cli("one-ratio", "--family", "hmst", "--grid", "0.5:1.0:0.5",
                  "--symbol", "1")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "alpha,gamma,spread,unique,witness"
    assert len(lines) == 3


@pytest.mark.parametrize("grid", ["0.1:nan:0.1", "0.1:inf:0.1"])
def test_one_ratio_non_finite_grid_is_exit_2(grid):
    # an input error, not a ValueError or OverflowError from the arithmetic
    out = run_cli("one-ratio", "--family", "hmst", "--grid", grid, expect=2)
    assert "finite" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1:1e-9"])
def test_one_ratio_huge_grid_is_exit_3(grid):
    # the first used to exit 1 with an OverflowError; the second would
    # build a billion-point list before any other budget applies
    out = run_cli("one-ratio", "--family", "hmst", "--grid", grid, expect=3)
    assert "cap" in out.stderr
    assert "Traceback" not in out.stderr


def test_beta_command(diag_file):
    doc = run_json("beta", "--input", diag_file, "--depth", "6",
                   "--max-period", "4")
    assert doc["results"]["lower"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert doc["results"]["upper"] == pytest.approx(math.log(3.0), abs=1e-12)


def test_beta_command_encloses_readme_example(diag_file):
    # log(3**5)/5 rounds to nearest one ulp below log 3
    results = run_json("beta", "--input", diag_file, "--depth", "5",
                       "--max-period", "4")["results"]
    assert results["upper"] >= math.log(3.0)
    assert results["lower"] <= results["upper"]


def test_missing_input_is_exit_2():
    run_cli("estimate", expect=2)


CHAIN = {"transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [0.5, 0.5]}


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("estimate", {"dim": 2, "matrices": []}),
        ("estimate", {"dim": True, "matrices": [{"re": [[2]]}]}),
        ("estimate", {"dim": 2, "matrices": [{"re": [["a", 0], [0, 1]]}]}),
        ("estimate", {"dim": 2, "matrices": [{"re": [[1, 0], [0]]}]}),
        ("estimate", {"dim": 10**8, "matrices": [{"re": [[1, 0], [0, 1]]}]}),
        ("stability", dict(DIAG_DOC, chain={"initial": [0.5, 0.5]})),
        ("stability", dict(DIAG_DOC, chain=[[0.5, 0.5], [0.5, 0.5]])),
        ("stability", dict(DIAG_DOC, chain=dict(CHAIN, transition=[[0.5, 0.5], [0.5]]))),
        ("stability", dict(DIAG_DOC, chain=dict(CHAIN, seed="abc"))),
        ("stability", dict(DIAG_DOC, chain=dict(CHAIN, seed=2.7))),
        ("stability", dict(DIAG_DOC, chain=dict(CHAIN, seed=True))),
    ],
    ids=[
        "no-matrices",
        "dim-bool",
        "non-numeric-entry",
        "ragged-rows",
        "dim-too-large-for-entries",
        "chain-without-transition",
        "chain-list",
        "chain-ragged",
        "chain-seed-string",
        "chain-seed-float",
        "chain-seed-bool",
    ],
)
def test_malformed_document_is_exit_2(tmp_path, cmd, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    out = run_cli(cmd, "--input", str(p), expect=2)
    assert out.stderr.startswith("input error:")


def test_unknown_family_is_exit_2():
    run_cli("estimate", "--family", "nosuch", "--alpha", "0.5", expect=2)


def test_resource_cap_is_exit_3(nilpotent_file):
    run_cli("bounds", "--input", nilpotent_file, "--depth", "30",
            "--max-period", "2", expect=3)


def test_unconverged_iteration_is_exit_4(tmp_path):
    # a pair on which the norm iteration needs more than 20 iterations
    import numpy as np

    from jsrkit import MatrixSet
    from jsrkit.bounds import estimate

    rng = np.random.default_rng(20250823)
    for _ in range(2):
        mats = [rng.normal(size=(2, 2)) for _ in range(2)]
    ms = MatrixSet(tuple(mats))
    b = estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)
    doc = {
        "dim": 2,
        "matrices": [
            {"name": f"A{i + 1}", "re": (m / b.upper).tolist()}
            for i, m in enumerate(mats)
        ],
    }
    p = tmp_path / "cycling.json"
    p.write_text(json.dumps(doc))
    out = run_cli("barabanov", "--input", str(p), "--resolution", "512",
                  "--max-iters", "20", expect=4)
    assert "did not converge in 20 iterations" in out.stderr


def _hidden_triangular_file(tmp_path, t):
    # Q T_i Q^T with Q the rotation by 0.6
    import numpy as np

    from jsrkit.families import rotation

    q = rotation(0.6)
    doc = {
        "dim": 2,
        "matrices": [
            {"name": f"A{i + 1}", "re": (q @ np.array(a) @ q.T).tolist()}
            for i, a in enumerate(t)
        ],
    }
    p = tmp_path / "hidden.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_mather_triangularises_a_hidden_triangular_pair(tmp_path):
    # its upper block [1], [-0.5] certifies
    t = ([[1.0, 1.5], [0.0, 0.4]], [[-0.5, -1.2], [0.0, 0.3]])
    p = _hidden_triangular_file(tmp_path, t)
    results = run_json("mather", "--input", p, "--depth", "7")["results"]
    assert results["certified_by"] == "max_entry"
    assert results["triangularised"] is True
    assert results["survivor_counts"] == {str(n): 1 for n in range(1, 8)}
    assert results["survivors_max_depth"] == ["1" * 7]


def test_mather_takes_the_lower_block_of_a_swapped_hidden_pair(tmp_path):
    # diagonals swapped: the JSR 1 sits on the quotient block [1], [-0.5]
    t = ([[0.4, 1.5], [0.0, 1.0]], [[0.3, -1.2], [0.0, -0.5]])
    p = _hidden_triangular_file(tmp_path, t)
    results = run_json("mather", "--input", p, "--depth", "7")["results"]
    assert results["certified_by"] == "max_entry"
    assert results["triangularised"] is True
    assert abs(results["rho_hat"] - 1.0) <= 1e-12
    assert results["survivors_max_depth"] == ["1" * 7]


def test_config_echo_lists_every_tunable(diag_file):
    # whatever can change the result must appear in the echoed config
    doc = run_json("mather", "--input", diag_file, "--depth", "6")
    for key in ("depth", "tol", "gap", "seed"):
        assert key in doc["config"]


# one run per command, and the grid path of one-ratio; DIAG and TMP stand
# for the README set's input file and a scratch directory
CONFIG_RUNS = [
    ("estimate", "--input", "DIAG", "--gap", "1e-6"),
    ("bounds", "--input", "DIAG", "--depth", "4"),
    ("triangularise", "--input", "DIAG"),
    ("barabanov", "--family", "hmst", "--alpha", "1.0", "--resolution", "512"),
    ("mather", "--input", "DIAG", "--depth", "4", "--dot", "TMP/g.dot"),
    ("stability", "--input", "DIAG", "--trials", "8", "--horizon", "16"),
    ("one-ratio", "--family", "hmst", "--alpha", "1.0", "--max-period", "4"),
    ("one-ratio", "--family", "hmst", "--grid", "0.5:1.0:0.5", "--max-period", "4",
     "--csv", "TMP/c.csv"),
    ("beta", "--input", "DIAG", "--depth", "4", "--max-period", "2"),
]
# input selectors and the files a command writes are not configuration
NOT_ECHOED = {"help", "input", "family", "alpha", "output", "dot", "csv"}


def _help(cmd, capsys):
    with pytest.raises(SystemExit) as stop:
        main([cmd, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
def test_every_command_has_help(cmd, capsys):
    assert _help(cmd, capsys).startswith(f"usage: jsrkit {cmd} ")
    assert cmd in {run[0] for run in CONFIG_RUNS}


@pytest.mark.parametrize(
    "argv", CONFIG_RUNS, ids=lambda argv: argv[0] + ("-grid" if "--grid" in argv else "")
)
def test_config_echoes_exactly_the_commands_own_flags(argv, diag_file, tmp_path,
                                                       capsys):
    usage = _help(argv[0], capsys).split("\n\n")[0]
    own = {flag.replace("-", "_") for flag in re.findall(r"--([a-z][a-z-]*)", usage)}
    argv = [a.replace("DIAG", diag_file).replace("TMP", str(tmp_path)) for a in argv]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["config"]) == own - NOT_ECHOED
