"""Command-line behaviors: modes, exit codes, artifact determinism."""

import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from sigmac import cli, constructions, core, pascal
from sigmac.core import SignatureMatrix, min_distinguishing_weight
from sigmac.linear import BinaryLinearCode, repetition_code


def run(argv):
    return cli.main(argv)


def test_pascal_row(capsys):
    assert run(["pascal", "--q", "3", "--n", "4", "--row"]) == 0
    assert capsys.readouterr().out == "1 4 10 16 19 16 10 4 1\n"


def test_pascal_row_usage_errors(capsys):
    assert run(["pascal", "--q", "1", "--n", "2", "--row"]) == 2
    assert run(["pascal", "--row"]) == 2
    assert run(["pascal", "--q", "3", "--n", "2"]) == 2  # no mode picked
    capsys.readouterr()
    assert run(["pascal", "--table", "--q", "0"]) == 2
    assert capsys.readouterr() == (
        "", "sigmac pascal: error: argument --q: need integers >= 2, got '0'\n")


def test_pascal_identity_sweep(capsys):
    assert run(["pascal", "--identity-sweep", "--qmax", "4", "--nmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_pascal_table_q_replaces_the_qmax_range(capsys):
    # --q gives the one alphabet of the table, so --qmax would go unread
    assert run(["pascal", "--table", "--q", "3", "--nmax", "2"]) == 0
    assert capsys.readouterr() == (joined_table([3], 2), "")
    assert run(["pascal", "--table", "--q", "3", "--qmax", "9", "--nmax", "2"]) == 2
    assert capsys.readouterr() == ("", "pascal: --qmax is read only without --q\n")
    assert run(["pascal", "--table", "--qmax", "1", "--nmax", "2"]) == 2
    assert capsys.readouterr() == (
        "", "sigmac pascal: error: argument --qmax: need integers >= 2, got '1'\n")


def test_identity_sweep_rejects_q(capsys):
    assert run(["pascal", "--identity-sweep", "--q", "9"]) == 2
    assert capsys.readouterr() == ("", "pascal: --identity-sweep does not take --q\n")


@pytest.mark.parametrize("argv, error", [
    (["--identity-sweep", "--n", "5", "--qmax", "2", "--nmax", "1"],
     "pascal: --identity-sweep does not take --n\n"),
    (["--table", "--n", "5"], "pascal: --table does not take --n\n"),
    (["--table", "--q", "3", "--n", "2", "--nmax", "4"], "pascal: --table does not take --n\n"),
    (["--row", "--q", "3", "--n", "2", "--qmax", "0", "--nmax", "-4"],
     "sigmac pascal: error: argument --qmax: need integers >= 2, got '0'\n"),
    (["--row", "--q", "3", "--n", "2", "--qmax", "5"], "pascal: --row does not take --qmax\n"),
    (["--row", "--q", "3", "--n", "2", "--nmax", "5"], "pascal: --row does not take --nmax\n"),
])
def test_pascal_rejects_options_its_mode_ignores(capsys, argv, error):
    assert run(["pascal", *argv]) == 2
    assert capsys.readouterr() == ("", error)


def test_pascal_grid_defaults_apply_when_unset(capsys):
    assert run(["pascal", "--identity-sweep"]) == 0
    unset = capsys.readouterr()
    assert run(["pascal", "--identity-sweep", "--qmax", "4", "--nmax", "8"]) == 0
    assert capsys.readouterr() == unset
    assert run(["pascal", "--table", "--nmax", "1"]) == 0
    assert capsys.readouterr().out == joined_table([2, 3, 4], 1)


def test_undecided_bound_stops_the_sweep(capsys, monkeypatch):
    # brackets too wide to decide the multinomial bound of (1, 2)
    monkeypatch.setattr(pascal, "_PI", (3 * 10 ** 40, 4 * 10 ** 40))
    assert run(["pascal", "--identity-sweep", "--qmax", "2", "--nmax", "2"]) == 1
    assert capsys.readouterr() == (
        "", "pascal: an analytic bound lies within the 40-digit brackets of pi and e\n")


def test_pascal_table(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["pascal", "--table", "--q", "3", "--nmax", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "q,n,k,coefficient"
    assert "3,2,2,3" in lines


def joined_table(q_values, nmax: int) -> str:
    """The CSV as one list of lines joined at the end, the table's first form."""
    lines = ["q,n,k,coefficient"]
    for q in q_values:
        for n in range(nmax + 1):
            for k, c in enumerate(pascal.row(q, n)):
                lines.append(f"{q},{n},{k},{c}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("q, qmax, nmax", [(None, 2, 0), (None, 4, 9), (None, 7, 30),
                                           (5, 2, 12), (2, 6, 0)])
def test_streamed_table_matches_the_joined_one(tmp_path, capsys, q, qmax, nmax):
    # --q replaces the --qmax range, which then is not given
    argv = ["pascal", "--table", "--nmax", str(nmax)]
    argv += ["--qmax", str(qmax)] if q is None else ["--q", str(q)]
    expected = joined_table([q] if q is not None else range(2, qmax + 1), nmax)
    assert run(argv) == 0
    assert capsys.readouterr() == (expected, "")
    out = tmp_path / "table.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_table_is_written_a_row_at_a_time(tmp_path):
    out = tmp_path / "table.csv"
    argv = ["pascal", "--table", "--qmax", "7", "--nmax", "100", "--out", str(out)]
    assert run(argv) == 0  # grows the rows, which stay cached
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4


@pytest.mark.parametrize("argv", [
    ["pascal", "--row", "--q", "3", "--n", "4"],
    ["pascal", "--table", "--qmax", "3", "--nmax", "4"],
    ["bounds", "--n", "1024", "--q", "2"],
    ["construct", "--method", "trivial", "--n", "3"],
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "missing" / "out.txt"
    real_row, rows = pascal.row, []
    monkeypatch.setattr(pascal, "row", lambda q, n: rows.append(n) or real_row(q, n))
    assert run(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]}: cannot write {target}: No such file or directory\n"
    if "--table" in argv:
        assert rows == []  # the file is opened before any row is computed


def test_construct_trivial_and_simulate(tmp_path, capsys):
    artifact = tmp_path / "triv.json"
    assert run(["construct", "--method", "trivial", "--n", "4",
                "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    assert obj["kind"] == "trivial" and obj["d_min"] == 1
    assert run(["simulate", "--in", str(artifact), "--rounds", "25",
                "--seed", "5"]) == 0
    capsys.readouterr()


def test_construct_random_artifact_round_trip(tmp_path):
    artifact = tmp_path / "rand.json"
    assert run(["construct", "--method", "random", "--q", "3", "--n", "8",
                "--t", "1", "--seed", "7", "--k", "12",
                "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    matrix = SignatureMatrix.from_json(obj["matrix"])
    assert min_distinguishing_weight(matrix).d_min == obj["d_min"] >= 3


def test_construct_random_linear_tau(tmp_path, capsys):
    artifact = tmp_path / "tau.json"
    assert run(["construct", "--method", "random", "--q", "3", "--n", "8",
                "--tau", "1/6", "--seed", "7", "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    assert obj["design_t"] == obj["k"] // 6
    assert obj["d_min"] >= 2 * obj["design_t"] + 1
    capsys.readouterr()
    assert run(["construct", "--method", "random", "--q", "3", "--n", "8",
                "--tau", "1/2", "--out", str(tmp_path / "x.json")]) == 2
    refused = capsys.readouterr()
    assert "nonexistence" in refused.err
    # a length set by --k does not let a tau at the threshold through
    assert run(["construct", "--method", "random", "--q", "3", "--n", "8", "--k", "12",
                "--tau", "1/2", "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr() == refused
    assert refused.err.count("\n") == 1 and not (tmp_path / "x.json").exists()


def test_construct_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["construct", "--method", "random", "--q", "3", "--n", "6",
            "--t", "1", "--seed", "9", "--k", "10"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_rs_augment_and_simulate(tmp_path, capsys):
    artifact = tmp_path / "rs.json"
    assert run(["construct", "--method", "rs-augment", "--n", "4", "--t", "1",
                "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    assert obj["kind"] == "rs_augmented"
    assert obj["d_min"] >= 3
    assert run(["simulate", "--in", str(artifact), "--rounds", "50",
                "--seed", "1"]) == 0
    capsys.readouterr()


def test_construct_prints_d_min_as_the_artifact_writes_it(tmp_path, capsys):
    artifact = tmp_path / "rs.json"
    # n=5 is above --limit-z 2, so the walk is not run and d_min is null
    assert run(["construct", "--method", "rs-augment", "--n", "5", "--t", "1",
                "--limit-z", "2", "--out", str(artifact)]) == 0
    assert json.loads(artifact.read_text())["d_min"] is None
    assert capsys.readouterr() == (
        f"rs-augment: wrote {artifact} (k=11, n=5, q=2, d_min=null)\n", "")
    assert run(["construct", "--method", "trivial", "--n", "3", "--out", str(artifact)]) == 0
    assert capsys.readouterr() == (f"trivial: wrote {artifact} (k=3, n=3, q=2, d_min=1)\n", "")


@pytest.fixture
def walks(monkeypatch):
    """Matrices given to the 3^n verifier, at every place it is bound."""
    walked = []

    def counting(matrix, limit=None):
        walked.append(matrix)
        return min_distinguishing_weight(matrix, limit)

    monkeypatch.setattr(core, "min_distinguishing_weight", counting)
    monkeypatch.setattr(constructions, "min_distinguishing_weight", counting)
    return walked


@pytest.mark.parametrize("argv", [
    ["--method", "random", "--q", "3", "--n", "6", "--t", "1", "--seed", "9", "--k", "8"],
    ["--method", "trivial", "--n", "4"],
    ["--method", "rs-augment", "--n", "4", "--t", "1"],
], ids=["random", "trivial", "rs-augment"])
def test_construct_walks_the_written_matrix_once(tmp_path, walks, argv):
    artifact = tmp_path / "a.json"
    assert run(["construct", *argv, "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    written = SignatureMatrix.from_json(obj.get("matrix") or obj["extended"])
    assert len(walks) == obj.get("attempts", 1)
    assert walks[-1] == written
    assert min_distinguishing_weight(written).d_min == obj["d_min"]


def test_simulate_worst_case_walks_once(tmp_path, walks, capsys):
    artifact = tmp_path / "rs.json"
    assert run(["construct", "--method", "rs-augment", "--n", "4", "--t", "1",
                "--out", str(artifact)]) == 0
    walks.clear()
    assert run(["simulate", "--in", str(artifact), "--rounds", "6",
                "--error-mode", "worst-case-from-witness"]) == 0
    assert len(walks) == 1
    capsys.readouterr()


def test_simulate_checks_stated_design_t_with_the_one_walk(tmp_path, walks, capsys):
    artifact = tmp_path / "rand.json"
    assert run(["construct", *RANDOM, "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    obj["design_t"], obj["d_min"] = 3, None
    artifact.write_text(json.dumps(obj))
    walks.clear()
    assert run(["simulate", "--in", str(artifact), "--rounds", "3",
                "--error-mode", "worst-case-from-witness"]) == 2
    assert len(walks) == 1
    # random mode does not walk, and an explicit --t is the caller's budget
    assert run(["simulate", "--in", str(artifact), "--rounds", "3"]) in (0, 1)
    assert run(["simulate", "--in", str(artifact), "--rounds", "3", "--t", "1",
                "--error-mode", "worst-case-from-witness"]) == 0
    assert len(walks) == 2
    capsys.readouterr()


def test_construct_kronecker_and_simulate(tmp_path, capsys):
    artifact = tmp_path / "kron.json"
    assert run(["construct", "--method", "kronecker", "--q", "3",
                "--epsilon", "1/16", "--p", "3", "--s", "2", "--r", "1",
                "--outer", "repetition", "--c1", "6", "--inner-t", "1",
                "--out", str(artifact)]) == 0
    obj = json.loads(artifact.read_text())
    assert obj["kind"] == "kronecker" and obj["certified_budget"] == 5
    # artifact is round-trippable: reload and re-verify the recorded d_min
    from sigmac.constructions import load_artifact
    loaded = load_artifact(obj)
    assert min_distinguishing_weight(loaded.matrix).d_min == obj["d_min"]
    assert run(["simulate", "--in", str(artifact), "--rounds", "40",
                "--seed", "2"]) == 0
    capsys.readouterr()


def test_kronecker_images_beyond_int64_simulate(tmp_path, capsys):
    # the image of u = (1, 1) under the inner row is 2^63 + 1
    inner = SignatureMatrix(q=2**62 + 2, rows=((2**62 + 1, 2**62),))
    code = constructions.kronecker_compose(repetition_code(3), inner, t_inner=0)
    artifact = tmp_path / "kron.json"
    artifact.write_text(core.dumps_canonical({**code.to_json(), "seed": 0, "d_min": None}))
    for t in ("0", "1"):
        assert run(["simulate", "--in", str(artifact), "--rounds", "20", "--t", t]) == 0
        assert capsys.readouterr() == (
            f"simulate: rounds=20 t={t} mode={core.RANDOM_ERRORS} failures=0\n", "")


def test_construct_kronecker_rejects_bad_epsilon(tmp_path, capsys):
    code = run(["construct", "--method", "kronecker", "--q", "3",
                "--epsilon", "1/100", "--p", "3", "--s", "2", "--r", "1",
                "--outer", "repetition", "--c1", "6",
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "eps1" in capsys.readouterr().err
    # argparse refuses --n 0; only a missing --n is reported as such
    for n, message in ((["--n", "0"], "sigmac construct: error: argument --n: need integers "
                                      ">= 1, got '0'"),
                       ([], "construct: --method trivial needs --n")):
        assert run(["construct", "--method", "trivial", *n,
                    "--out", str(tmp_path / "t.json")]) == 2
        assert capsys.readouterr().err == f"{message}\n"


def test_simulate_worst_case_over_budget(tmp_path, capsys):
    artifact = tmp_path / "triv.json"
    run(["construct", "--method", "trivial", "--n", "3", "--out", str(artifact)])
    # identity tolerates 0 errors; at t=1 the witness forces a failure
    code = run(["simulate", "--in", str(artifact), "--rounds", "5",
                "--t", "1", "--error-mode", "worst-case-from-witness",
                "--seed", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "transmitted" in err


def test_simulate_zero_rounds_vacuous(tmp_path, capsys):
    artifact = tmp_path / "triv.json"
    run(["construct", "--method", "trivial", "--n", "3", "--out", str(artifact)])
    assert run(["simulate", "--in", str(artifact), "--rounds", "0"]) == 0
    capsys.readouterr()


def test_simulate_missing_artifact(capsys):
    assert run(["simulate", "--in", "/nonexistent.json"]) == 2
    capsys.readouterr()


TRIVIAL = ["--method", "trivial", "--n", "3"]
RS = ["--method", "rs-augment", "--n", "4", "--t", "1"]
RANDOM = ["--method", "random", "--q", "3", "--n", "8", "--t", "1", "--k", "12",
          "--seed", "7"]                            # d_min 5
KRONECKER = ["--method", "kronecker", "--q", "3", "--epsilon", "1/16", "--p", "3",
             "--s", "2", "--r", "1", "--outer", "repetition", "--c1", "6",
             "--inner-t", "1"]


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(envelope):
        obj = envelope
        for part in path:
            obj = obj[part]
        obj[key] = value
        return envelope
    return mutate


def _rs_on_a_base_of_three_columns(envelope):
    base = SignatureMatrix(q=2, rows=((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    return {**constructions.rs_augment(base, 1).to_json(), "seed": 0, "d_min": None}


def _outer_of_rank_one(envelope):
    """A Kronecker envelope whose outer generator repeats one row."""
    loaded = constructions.load_artifact(envelope)
    twice = BinaryLinearCode(generator=loaded.outer.generator * 2,
                             design_distance=loaded.outer.design_distance)
    code = constructions.kronecker_compose(twice, loaded.inner, t_inner=loaded.t_inner)
    return {**code.to_json(), "seed": 0, "d_min": 0}


def _rs_base_q_2_61(envelope):
    """The RS envelope with q = 2^61 stated on base and extended rows, and 302
    extended rows: its field is the prime above 4 (2^61 - 1)."""
    for part in ("base", "extended"):
        envelope[part]["q"] = 2**61
    extended = envelope["extended"]
    extended["rows"] += [[0] * 4] * (302 - extended["k"])
    extended["k"] = 302
    return envelope


# (construct argv, edit of the written envelope, extra simulate argv)
MALFORMED = {
    "t-above-k": (TRIVIAL, lambda obj: obj, ["--t", "4"]),
    "top-level-list": (TRIVIAL, lambda obj: [obj], []),
    "rows-not-lists": (TRIVIAL, _set("matrix", "rows", [1, 2]), []),
    "unknown-kind": (TRIVIAL, _set("kind", "mystery"), []),
    "rs-bit-width": (RS, _set("bit_width", 2), []),
    "rs-t-huge": (RS, _set("t", 10**6), []),
    "rs-design-t": (RS, _set("design_t", 2), []),
    "rs-base-entry": (RS, _set("base", "rows", 0, 1, 1), []),
    "rs-base-above-limit-u": (RS, _rs_on_a_base_of_three_columns, ["--limit-u", "2"]),
    "rs-base-q-2-61": (RS, _rs_base_q_2_61, []),
    "kronecker-t-inner": (KRONECKER, _set("t_inner", 3), []),
    "kronecker-outer-distance": (KRONECKER, _set("outer", "D", 7), []),
    "kronecker-composed-entry": (KRONECKER, _set("composed", "rows", 0, 0, 0), []),
    "kronecker-certified-budget": (KRONECKER, _set("certified_budget", 4), []),
    "kronecker-eps1-zero-denominator": (KRONECKER, _set("eps1", "1/0"), []),
    "kronecker-outer-rank-deficient": (KRONECKER, _outer_of_rank_one, ["--t", "0"]),
    "bare-matrix-not-decodable": (
        TRIVIAL, lambda obj: {"kind": "matrix", **SignatureMatrix(q=2, rows=((1, 1),)).to_json()},
        ["--error-mode", "worst-case-from-witness"]),
    "n-above-limit-u": (TRIVIAL, lambda obj: obj, ["--limit-u", "2"]),
    "n-above-limit-z": (TRIVIAL, lambda obj: obj,
                        ["--limit-z", "2", "--error-mode", "worst-case-from-witness"]),
    "design-t-not-int": (RANDOM, _set("design_t", "1"), ["--t", "1"]),
    "design-t-above-k": (RANDOM, _set("design_t", 13), ["--t", "1"]),
    "d-min-below-design-t": (RANDOM, _set("design_t", 3), []),
    "d-min-not-int": (RANDOM, _set("d_min", "5"), []),
    "design-t-not-tolerated": (RANDOM, lambda obj: _set("d_min", None)(_set("design_t", 3)(obj)),
                               ["--error-mode", "worst-case-from-witness"]),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_simulate_malformed_input_is_usage_error(tmp_path, capsys, case):
    argv, mutate, extra = MALFORMED[case]
    artifact = tmp_path / "a.json"
    assert run(["construct", *argv, "--out", str(artifact)]) == 0
    artifact.write_text(json.dumps(mutate(json.loads(artifact.read_text()))))
    capsys.readouterr()
    assert run(["simulate", "--in", str(artifact), "--rounds", "5", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_rs_base_of_a_huge_alphabet_loads_at_once(tmp_path, capsys):
    # q_RS is the prime above 4 (2^61 - 1), found by Miller-Rabin; trial
    # division did not finish on either envelope.
    base = SignatureMatrix(q=2**61, rows=constructions.construct_trivial(4).rows)
    valid, malformed = tmp_path / "valid.json", tmp_path / "malformed.json"
    valid.write_text(json.dumps(
        {**constructions.rs_augment(base, 1).to_json(), "seed": 0, "d_min": None}))
    assert run(["construct", *RS, "--out", str(malformed)]) == 0
    malformed.write_text(json.dumps(_rs_base_q_2_61(json.loads(malformed.read_text()))))
    capsys.readouterr()
    for artifact, code in ((valid, 0), (malformed, 2)):
        start = time.perf_counter()
        assert run(["simulate", "--in", str(artifact), "--rounds", "5"]) == code
        assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "simulate: rounds=5 t=1 mode=random-positions-random-values failures=0\n"
    assert captured.err.startswith("simulate: cannot load artifact: does not match")


@pytest.mark.parametrize("module", ["numpy"])
def test_importing_the_cli_leaves_module_unloaded(module):
    # it costs a fresh process tens of milliseconds to import, and only
    # decoding needs it
    src = Path(cli.__file__).resolve().parents[1]
    check = f"import sys, sigmac.cli; sys.exit({module!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], cwd=src, timeout=60).returncode == 0


def test_identity_sweep_runs_without_mpmath():
    # a None entry makes any import of mpmath fail
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys; sys.modules['mpmath'] = None\n"
              "from sigmac.cli import main\n"
              "sys.exit(main(['pascal', '--identity-sweep', '--qmax', '4', '--nmax', '8']))")
    done = subprocess.run([sys.executable, "-c", script], cwd=src, timeout=60,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "identity sweep: 1066 checks, 0 failures\n", "")


def test_limit_u_reaches_the_rs_base_search(tmp_path, capsys, monkeypatch):
    # With the default limit lowered below the base's 3 columns, only
    # --limit-u lets its 2^n search run.
    artifact = tmp_path / "rs.json"
    artifact.write_text(json.dumps(_rs_on_a_base_of_three_columns(None)))
    monkeypatch.setattr(core, "DEFAULT_U_LIMIT", 2)
    assert run(["simulate", "--in", str(artifact), "--rounds", "5", "--limit-u", "3"]) == 0
    assert capsys.readouterr().out == \
        "simulate: rounds=5 t=1 mode=random-positions-random-values failures=0\n"
    # without --limit-u, the lowered default is the one every decoder reads
    assert run(["simulate", "--in", str(artifact), "--rounds", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "simulate: n=3 exceeds the 2^n decoding limit (2); raise --limit-u to override\n"


def test_bare_matrix_budget_is_checked_like_every_family(tmp_path, capsys):
    # no design_t: the budget is 0, which the witness walk finds untolerated
    artifact = tmp_path / "m.json"
    artifact.write_text(json.dumps(
        {"kind": "matrix", **SignatureMatrix(q=2, rows=((1, 1),)).to_json()}))
    assert run(["simulate", "--in", str(artifact), "--rounds", "3",
                "--error-mode", "worst-case-from-witness"]) == 2
    assert capsys.readouterr().err == \
        "simulate: the matrix does not tolerate the artifact's design_t = 0\n"
    # an explicit --t is the caller's budget: the rounds run and fail
    assert run(["simulate", "--in", str(artifact), "--rounds", "3", "--t", "0",
                "--error-mode", "worst-case-from-witness"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [TRIVIAL, RANDOM, RS, KRONECKER],
                         ids=["trivial", "random", "rs-augment", "kronecker"])
def test_construct_envelope_reloads_to_the_same_bytes(tmp_path, argv):
    artifact = tmp_path / "a.json"
    assert run(["construct", *argv, "--out", str(artifact)]) == 0
    text = artifact.read_text()
    obj = json.loads(text)
    code = constructions.load_artifact(obj)
    again = {**code.to_json(), "seed": obj["seed"], "d_min": obj["d_min"]}
    assert core.dumps_canonical(again) == text
    written = obj.get("matrix") or obj.get("extended") or obj["composed"]
    assert code.matrix == SignatureMatrix.from_json(written)
    assert code.design_t == obj["design_t"]
    u = tuple(j % 2 for j in range(code.matrix.n))
    assert code.decode_batch([core.encode(code.matrix, u)], code.design_t, None) == [u]


KRONECKER_SEARCH = ["--method", "kronecker", "--q", "3", "--epsilon", "1/16", "--p", "3",
                    "--s", "2", "--r", "2", "--inner-t", "1"]


@pytest.mark.parametrize("argv, error", [
    (TRIVIAL + ["--q", "5"], "--method trivial does not take --q"),
    (RS + ["--q", "3"], "--method rs-augment does not take --q"),
    (TRIVIAL + ["--t", "4"], "--method trivial does not take --t"),
    (KRONECKER + ["--t", "1"], "--method kronecker does not take --t"),
    (["--method", "random", "--q", "3", "--n", "8", "--tau", "1/8", "--t", "1"],
     "--tau sets t to floor(tau * k); drop --t"),
    (TRIVIAL + ["--k", "5"], "--method trivial does not take --k"),
    (RS + ["--tau", "1/8"], "--method rs-augment does not take --tau"),
    (KRONECKER + ["--max-attempts", "5"], "--method kronecker does not take --max-attempts"),
    (KRONECKER + ["--n", "2"], "--method kronecker does not take --n"),
    (TRIVIAL + ["--epsilon", "1/16"], "--method trivial does not take --epsilon"),
    (RANDOM + ["--p", "3"], "--method random does not take --p"),
    (RS + ["--s", "2"], "--method rs-augment does not take --s"),
    (RANDOM + ["--r", "1"], "--method random does not take --r"),
    (TRIVIAL + ["--outer", "search"], "--method trivial does not take --outer"),
    (RS + ["--inner-t", "1"], "--method rs-augment does not take --inner-t"),
    (RANDOM + ["--c1", "6"], "--method random does not take --c1"),
    (KRONECKER_SEARCH + ["--c1", "6"], "--c1 is read only with --outer repetition"),
    (KRONECKER_SEARCH + ["--outer", "search", "--c1", "6"],
     "--c1 is read only with --outer repetition"),
])
def test_construct_rejects_options_its_method_ignores(tmp_path, capsys, argv, error):
    out = tmp_path / "a.json"
    assert run(["construct", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"construct: {error}\n")
    assert not out.exists()


def test_construct_defaults_apply_when_unset(tmp_path):
    # --q 2, --t 1, --max-attempts 100 and --outer search, written out or left unset
    for unset, stated in (
        (["--method", "rs-augment", "--n", "4"], ["--t", "1"]),
        (["--method", "random", "--n", "5"], ["--q", "2", "--t", "1", "--max-attempts", "100"]),
        (["--method", "kronecker", "--epsilon", "1/24", "--p", "3", "--s", "2", "--r", "2"],
         ["--q", "2", "--outer", "search"]),
    ):
        a, b = tmp_path / "unset.json", tmp_path / "stated.json"
        assert run(["construct", *unset, "--out", str(a)]) == 0
        assert run(["construct", *unset, *stated, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


INNER_SPACE = ("construct: the inner search's q^(p*s) candidates x (3^s - 1)/2 sign patterns "
               "x p rows exceed its budget 6000000000; choose a smaller --q, --p or --s")


@pytest.mark.parametrize("p, s", [
    # 3^16 candidates x 40 patterns x 4 rows = 6.9e9
    ("4", "4"),
    # p*s alone puts the space over the budget, and the power is not formed
    ("100", "10"),
    ("1000", "10"),
])
def test_construct_kronecker_inner_space_above_budget(tmp_path, capsys, p, s):
    out = tmp_path / "k.json"
    assert run(["construct", "--method", "kronecker", "--q", "3", "--epsilon", "1/16",
                "--p", p, "--s", s, "--r", "1", "--outer", "repetition", "--c1", "6",
                "--inner-t", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", INNER_SPACE + "\n")
    assert not out.exists()


def test_construct_kronecker_negative_inner_t(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["construct", *KRONECKER[:-1], "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "sigmac construct: error: argument --inner-t: need integers >= 0, got '-1'\n"
    assert not out.exists()


def test_3n_limit_advice_names_limit_z(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["construct", *RANDOM, "--limit-z", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "construct: n=8 exceeds the 3^n enumeration limit (5); raise --limit-z to override\n")
    assert not out.exists()
    assert run(["construct", *RANDOM, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["simulate", "--in", str(out), "--limit-z", "3",
                "--error-mode", "worst-case-from-witness"]) == 2
    assert capsys.readouterr() == (
        "", "simulate: n=8 exceeds the 3^n enumeration limit (3); raise --limit-z to override\n")


@pytest.mark.parametrize("attempts", ["0", "-3"])
def test_max_attempts_below_one_is_usage_error(tmp_path, capsys, attempts):
    out = tmp_path / "r.json"
    assert run(["construct", "--method", "random", "--n", "6", "--q", "3", "--k", "10",
                "--max-attempts", attempts, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"sigmac construct: error: argument --max-attempts: need integers >= 1, "
            f"got '{attempts}'\n")
    assert not out.exists()


# Each integer option of construct and simulate, and the least value it takes.
INTEGER_FLOORS = [("construct", option, low) for option, low in (
    ("--n", 1), ("--k", 1), ("--q", 2), ("--t", 0), ("--max-attempts", 1), ("--p", 1),
    ("--s", 1), ("--r", 1), ("--c1", 1), ("--inner-t", 0), ("--limit-z", 0))] + \
    [("simulate", option, 0) for option in ("--t", "--limit-z", "--limit-u")]


@pytest.mark.parametrize("subcommand, option, low", INTEGER_FLOORS)
def test_each_integer_option_refuses_a_value_below_its_floor(refusal_dir, capsys, subcommand,
                                                             option, low):
    """Refused by argparse, naming the option, whether or not the mode reads it."""
    out = refusal_dir / "a.json"
    first = ["--method", "trivial", "--out", str(out)] if subcommand == "construct" else \
        ["--in", str(refusal_dir / "triv.json")]
    capsys.readouterr()
    assert run([subcommand, *first, option, str(low - 1)]) == 2
    assert capsys.readouterr() == ("", f"sigmac {subcommand}: error: argument {option}: "
                                       f"need integers >= {low}, got '{low - 1}'\n")
    assert not out.exists()


@pytest.mark.parametrize("option, method", [("--tau", RANDOM), ("--epsilon", KRONECKER)])
def test_zero_denominator_is_usage_error(tmp_path, capsys, option, method):
    out = tmp_path / "a.json"
    assert run(["construct", *method, option, "1/0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {option}: zero denominator in '1/0'")
    assert not out.exists()


def test_main_parses_each_call_afresh(tmp_path, capsys):
    artifact = tmp_path / "rand.json"
    assert run(["construct", "--method", "random", "--q", "3", "--n", "6",
                "--t", "1", "--k", "10", "--seed", "3", "--out", str(artifact)]) == 0
    assert run(["simulate", "--in", str(artifact), "--rounds", "3", "--t", "2"]) in (0, 1)
    capsys.readouterr()
    # an argument added to a parser from build_parser() is not one main knows
    cli.build_parser().add_argument("--extra")
    assert run(["simulate", "--in", str(artifact), "--rounds", "3"]) == 0
    assert "t=1 " in capsys.readouterr().out
    assert run(["simulate", "--in", str(artifact), "--extra", "x"]) == 2
    capsys.readouterr()


def test_bounds_text_single_cell(capsys):
    assert run(["bounds", "--n", "1024", "--q", "2", "--tau", "0"]) == 0
    out = capsys.readouterr().out
    for column in ("converse_k=", "random_k=", "explicit_rs_k=",
                   "kronecker_k=", "threshold="):
        assert column in out


def test_bounds_csv_and_json(tmp_path):
    csv_path = tmp_path / "b.csv"
    assert run(["bounds", "--n", "1024,4096", "--q", "2,3", "--t", "1",
                "--format", "csv", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("n,q,mode,param")
    json_path = tmp_path / "b.json"
    assert run(["bounds", "--n", "1024", "--q", "3", "--tau", "0.1",
                "--format", "json", "--out", str(json_path)]) == 0
    obj = json.loads(json_path.read_text())
    assert len(obj["reports"]) == 1
    assert obj["reports"][0]["omitted_terms"]


def test_bounds_tau_is_parsed_like_construct_tau(tmp_path, capsys):
    # this decimal and 1/3, the threshold for q = 3, round to one float
    # below 1/3; the decimal itself lies above it, so no code exists
    tau = "0.33333333333333334"
    assert run(["bounds", "--n", "16", "--q", "3", "--tau", tau]) == 2
    assert capsys.readouterr() == ("", "bounds: tau=16666666666666667/50000000000000000 "
                                   "reaches the nonexistence threshold (q-1)/(2q) = 1/3: "
                                   "no such code exists\n")
    assert run(["construct", "--method", "random", "--q", "3", "--n", "16", "--tau", tau,
                "--out", str(tmp_path / "a.json")]) == 2
    assert "reaches the nonexistence threshold" in capsys.readouterr().err
    # a fraction is read exactly, and a decimal prints as its float did
    assert run(["bounds", "--n", "16", "--q", "5", "--tau", "1/3"]) == 0
    assert "linear-tau=0.3333333333333333:" in capsys.readouterr().out
    assert run(["bounds", "--n", "16", "--q", "3", "--tau", "0.1"]) == 0
    assert "linear-tau=0.1:" in capsys.readouterr().out


def test_bounds_malformed_range(capsys):
    assert run(["bounds", "--n", "abc", "--q", "2"]) == 2
    assert run(["bounds", "--n", "", "--q", "2"]) == 2
    assert run(["bounds", "--n", "1", "--q", "2"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.fixture
def refusal_dir(tmp_path):
    """A directory holding triv.json, the trivial n=3 artifact, and matrix.json,
    the bare matrix [1 1], which tolerates no error."""
    assert run(["construct", *TRIVIAL, "--out", str(tmp_path / "triv.json")]) == 0
    (tmp_path / "matrix.json").write_text(json.dumps(
        {"kind": "matrix", **SignatureMatrix(q=2, rows=((1, 1),)).to_json()}))
    return tmp_path


# Each refusal of the CLI: its argv ("{tmp}" stands for refusal_dir), exit
# code, whole stderr line, and the (object, name, value) attributes it patches.
REFUSALS = {
    "pascal-no-mode": (["pascal", "--q", "3", "--n", "2"], 2,
                       "sigmac pascal: error: one of the arguments --row --identity-sweep "
                       "--table is required", ()),
    "pascal-two-modes": (["pascal", "--row", "--table"], 2,
                         "sigmac pascal: error: argument --table: not allowed with argument "
                         "--row", ()),
    "pascal-row-grid": (["pascal", "--row", "--q", "3", "--n", "2", "--qmax", "5"], 2,
                        "pascal: --row does not take --qmax", ()),
    "pascal-row-range": (["pascal", "--row", "--q", "1", "--n", "2"], 2,
                         "sigmac pascal: error: argument --q: need integers >= 2, got '1'", ()),
    "pascal-row-needs": (["pascal", "--row", "--n", "2"], 2, "pascal: --row needs --q", ()),
    "pascal-grid-n": (["pascal", "--table", "--n", "5"], 2,
                      "pascal: --table does not take --n", ()),
    "pascal-sweep-q": (["pascal", "--identity-sweep", "--q", "9"], 2,
                       "pascal: --identity-sweep does not take --q", ()),
    "pascal-sweep-out": (["pascal", "--identity-sweep", "--out", "{tmp}/a.json"], 2,
                         "pascal: --identity-sweep does not take --out", ()),
    "pascal-table-q-qmax": (["pascal", "--table", "--q", "3", "--qmax", "9"], 2,
                            "pascal: --qmax is read only without --q", ()),
    "pascal-grid-range": (["pascal", "--table", "--qmax", "1"], 2,
                          "sigmac pascal: error: argument --qmax: need integers >= 2, got '1'",
                          ()),
    "pascal-q-range": (["pascal", "--table", "--q", "0"], 2,
                       "sigmac pascal: error: argument --q: need integers >= 2, got '0'", ()),
    "pascal-library-error": (
        ["pascal", "--identity-sweep", "--qmax", "2", "--nmax", "2"], 1,
        "pascal: an analytic bound lies within the 40-digit brackets of pi and e",
        ((pascal, "_PI", (3 * 10 ** 40, 4 * 10 ** 40)),)),
    "construct-ignored-option": (["construct", *TRIVIAL, "--q", "5", "--out", "{tmp}/a.json"], 2,
                                 "construct: --method trivial does not take --q", ()),
    "construct-failed": (
        ["construct", "--method", "random", "--q", "2", "--n", "6", "--t", "1", "--k", "6",
         "--max-attempts", "3", "--out", "{tmp}/a.json"], 1,
        "construction failed after 3 attempts: no 6x6 matrix with d_min >= 3 found "
        "in 3 attempts (0 length escalations from 6)", ()),
    # the stacked inner search exhausts all 3^12 ternary 3x4 matrices: none has d_min 3
    "construct-inner-exhausted": (["construct", *KRONECKER[:9], "4", *KRONECKER[10:],
                                   "--out", "{tmp}/a.json"], 1,
                                  "construction failed after 531441 attempts: exhausted all "
                                  "531441 candidate 3x4 matrices over q=3: none reaches "
                                  "d_min >= 3", ()),
    "construct-limit-z": (["construct", *RANDOM, "--limit-z", "5", "--out", "{tmp}/a.json"], 2,
                          "construct: n=8 exceeds the 3^n enumeration limit (5); "
                          "raise --limit-z to override", ()),
    "construct-huge-t": (["construct", "--method", "random", "--n", "3", "--q", "3",
                          "--t", str(10 ** 400), "--out", "{tmp}/a.json"], 2,
                         "construct: t is too large for the floating-point length bounds", ()),
    "construct-rs-huge-t": (["construct", "--method", "rs-augment", "--n", "3",
                             "--t", str(10 ** 400), "--out", "{tmp}/a.json"], 2,
                            "construct: t is too large: the field needs a prime above "
                            "k + 2t - 1, beyond the exact primality test", ()),
    "construct-value-error": (["construct", "--method", "trivial", "--out", "{tmp}/a.json"], 2,
                              "construct: --method trivial needs --n", ()),
    "construct-needs": (["construct", *KRONECKER_SEARCH[:-4], "--out", "{tmp}/a.json"], 2,
                        "construct: --method kronecker needs --r", ()),
    "simulate-load": (["simulate", "--in", "{tmp}/missing.json"], 2,
                      "simulate: cannot load artifact: [Errno 2] No such file or directory: "
                      "'{tmp}/missing.json'", ()),
    "simulate-limit-u": (["simulate", "--in", "{tmp}/triv.json", "--limit-u", "2"], 2,
                         "simulate: n=3 exceeds the 2^n decoding limit (2); "
                         "raise --limit-u to override", ()),
    "simulate-t-range": (["simulate", "--in", "{tmp}/triv.json", "--t", "4"], 2,
                         "simulate: need 0 <= t <= k = 3", ()),
    "simulate-rounds-range": (["simulate", "--in", "{tmp}/triv.json", "--rounds", "-1"], 2,
                              "sigmac simulate: error: argument --rounds: need integers >= 0, "
                              "got '-1'", ()),
    "simulate-random-limit-z": (["simulate", "--in", "{tmp}/triv.json", "--limit-z", "1"], 2,
                                "simulate: --error-mode random-positions-random-values "
                                "does not take --limit-z", ()),
    "simulate-limit-z": (["simulate", "--in", "{tmp}/triv.json", "--limit-z", "2",
                          "--error-mode", "worst-case-from-witness"], 2,
                         "simulate: n=3 exceeds the 3^n enumeration limit (2); "
                         "raise --limit-z to override", ()),
    "simulate-design-t": (["simulate", "--in", "{tmp}/matrix.json",
                           "--error-mode", "worst-case-from-witness"], 2,
                          "simulate: the matrix does not tolerate the artifact's design_t = 0", ()),
    "bounds-value-error": (["bounds", "--n", "1", "--q", "2"], 2,
                           "sigmac bounds: error: argument --n: need integers >= 2, got '1'", ()),
    "bounds-t-and-tau": (["bounds", "--n", "64", "--t", "0", "--tau", "0.1"], 2,
                         "sigmac bounds: error: argument --tau: not allowed with argument --t", ()),
    "bounds-huge-t": (["bounds", "--n", "10", "--q", "2", "--t", str(10 ** 400)], 2,
                      "bounds: t is too large for the floating-point length bounds", ()),
    "bounds-empty-list": (["bounds", "--n", ","], 2,
                          "sigmac bounds: error: argument --n: need integers >= 2, got ','", ()),
    "unwritable-out": (["bounds", "--n", "1024", "--out", "{tmp}/missing/b.txt"], 2,
                       "bounds: cannot write {tmp}/missing/b.txt: No such file or directory", ()),
    # An integer refusal quotes at most 20 characters of the value, then its length.
    "construct-negative-n": (["construct", *TRIVIAL[:-1], f"-{10 ** 400}", "--out",
                              "{tmp}/a.json"], 2,
                             "sigmac construct: error: argument --n: need integers >= 1, "
                             "got '-1000000000000000000'... (402 characters)", ()),
    "construct-n-digits": (["construct", *TRIVIAL[:-1], "9" * 5000, "--out", "{tmp}/a.json"], 2,
                           "sigmac construct: error: argument --n: need integers >= 1, "
                           "got '99999999999999999999'... (5000 characters)", ()),
    "construct-seed-digits": (["construct", *TRIVIAL, "--seed", "9" * 5000, "--out",
                               "{tmp}/a.json"], 2,
                              "sigmac construct: error: argument --seed: need integers, "
                              "got '99999999999999999999'... (5000 characters)", ()),
    "simulate-seed": (["simulate", "--in", "{tmp}/triv.json", "--seed", "0x10"], 2,
                      "sigmac simulate: error: argument --seed: need integers, got '0x10'", ()),
    "bounds-t-digits": (["bounds", "--n", "10", "--t", "9" * 5000], 2,
                        "sigmac bounds: error: argument --t: need integers >= 0, "
                        "got '99999999999999999999'... (5000 characters)", ()),
    "bounds-negative-t": (["bounds", "--n", "10", "--t", "-1"], 2,
                          "sigmac bounds: error: argument --t: need integers >= 0, got '-1'", ()),
    "bounds-list-digits": (["bounds", "--n", "16," + "9" * 5000], 2,
                           "sigmac bounds: error: argument --n: need integers >= 2, "
                           "got '16,99999999999999999'... (5003 characters)", ()),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_each_refusal_exits_with_its_one_line(refusal_dir, capsys, monkeypatch, case):
    argv, code, line, patches = REFUSALS[case]
    for obj, name, value in patches:
        monkeypatch.setattr(obj, name, value)
    capsys.readouterr()
    assert run([arg.replace("{tmp}", str(refusal_dir)) for arg in argv]) == code
    assert capsys.readouterr() == ("", line.replace("{tmp}", str(refusal_dir)) + "\n")
    assert not (refusal_dir / "a.json").exists()


def _subparser(subcommand):
    """The parser of one subcommand, as build_parser() declares it."""
    return next(a for a in cli.build_parser()._actions if a.dest == "subcommand").choices[subcommand]


# For each mode of cli.MODES, an argv that the mode accepts; "{tmp}" stands
# for refusal_dir.
MODE_ARGV = {
    ("pascal", "--row"): ["--row", "--q", "3", "--n", "2", "--out", "{tmp}/out.txt"],
    ("pascal", "--table"): ["--table", "--nmax", "1", "--out", "{tmp}/out.txt"],
    ("pascal", "--identity-sweep"): ["--identity-sweep", "--qmax", "2", "--nmax", "1"],
    **{("construct", f"--method {argv[1]}"): [*argv, "--out", "{tmp}/out.txt"]
       for argv in (TRIVIAL, RS, RANDOM, KRONECKER)},
    **{("simulate", f"--error-mode {mode}"): ["--in", "{tmp}/triv.json", "--rounds", "3",
                                             "--error-mode", mode]
       for mode in (core.RANDOM_ERRORS, core.WORST_CASE_ERRORS)},
}


def _unread_options():
    """One case for each mode and each optional option of the parser that it does not read."""
    cases = []
    for (subcommand, mode), (required, optional) in cli.MODES.items():
        selectors = {other.split()[0] for sub, other in cli.MODES if sub == subcommand}
        for action in _subparser(subcommand)._actions:
            for option in action.option_strings:
                if not (action.required or action.dest == "help" or option in selectors
                        or option in f"{required} {optional}".split()):
                    value = action.choices[0] if action.choices else "2"
                    cases.append(pytest.param(subcommand, mode, option, value,
                                              id=f"{subcommand} {mode} {option}"))
    return cases


def test_the_option_table_names_every_mode_and_option():
    assert set(MODE_ARGV) == set(cli.MODES)
    for subcommand in {sub for sub, _ in cli.MODES}:
        modes = {mode for sub, mode in cli.MODES if sub == subcommand}
        selectors = {mode.split()[0] for mode in modes}
        options, selectable = set(), set()
        for action in _subparser(subcommand)._actions:
            options.update(action.option_strings)
            if action.option_strings[0] in selectors:
                selectable.update([f"{action.option_strings[0]} {c}" for c in action.choices]
                                  if action.choices else action.option_strings)
        assert selectable == modes
        for mode in modes:
            assert set(" ".join(cli.MODES[subcommand, mode]).split()) <= options


@pytest.mark.parametrize("subcommand, mode, option, value", _unread_options())
def test_each_mode_refuses_each_option_it_does_not_read(refusal_dir, capsys, subcommand, mode,
                                                        option, value):
    out = refusal_dir / "out.txt"
    argv = [subcommand, *MODE_ARGV[subcommand, mode], option,
            str(out) if option == "--out" else value]
    capsys.readouterr()
    assert run([arg.replace("{tmp}", str(refusal_dir)) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"{subcommand}: {mode} does not take {option}\n")
    assert not out.exists()


def test_each_mode_argv_is_accepted(refusal_dir, capsys):
    for (subcommand, mode), argv in MODE_ARGV.items():
        assert run([subcommand, *[arg.replace("{tmp}", str(refusal_dir)) for arg in argv]]) == 0
    capsys.readouterr()


BIG = str(10 ** 400)
FLOAT_N = "n is too large for the floating-point length bounds"


def kronecker_with(option, value):
    """The KRONECKER options with `option` set to `value`."""
    at = KRONECKER.index(option) + 1
    return [*KRONECKER[:at], value, *KRONECKER[at + 1:]]


@pytest.mark.parametrize("argv, line", [
    (["bounds", "--n", "10", "--q", BIG], "bounds: q is too large for the floating-point "
                                          "length bounds"),
    (["bounds", "--n", "10", "--q", "2", "--t", BIG],
     "bounds: t is too large for the floating-point length bounds"),
    (["bounds", "--n", BIG, "--q", "2"], f"bounds: {FLOAT_N}"),
    (["bounds", "--n", str(10 ** 30), "--q", "2"],
     "bounds: n is too large: the field needs a prime above n, beyond the exact primality test"),
    (["construct", "--method", "random", "--n", "3", "--q", "3", "--t", BIG],
     "construct: t is too large for the floating-point length bounds"),
    (["construct", "--method", "random", "--n", "3", "--q", BIG, "--t", "0"],
     "construct: q is too large for the floating-point length bounds"),
    (["construct", "--method", "random", "--n", BIG], f"construct: {FLOAT_N}"),
    (["construct", "--method", "random", "--n", "3", "--t", str(10 ** 308)],
     "construct: n or t is too large: the planned length is past the largest float"),
    (["pascal", "--row", "--q", BIG, "--n", "1"],
     "pascal: row n of the q-ary triangle has n*(q-1) + 1 entries, more than a list can hold"),
    (["pascal", "--table", "--q", BIG, "--nmax", "1"],
     "pascal: row n of the q-ary triangle has n*(q-1) + 1 entries, more than a list can hold"),
    # a row of 2^62 entries: its list is refused before anything is allocated
    (["pascal", "--row", "--q", str(2 ** 62), "--n", "1"], "pascal: out of memory"),
    (["construct", *kronecker_with("--q", BIG)], INNER_SPACE),
    (["construct", *kronecker_with("--p", BIG)], INNER_SPACE),
    # wt(M z) <= p, so no 3-row inner matrix corrects 2 errors: refused before the walk
    (["construct", *kronecker_with("--inner-t", BIG)],
     "construct: --inner-t must be at most (p - 1) // 2 = 1, as d_min <= p"),
    (["construct", *kronecker_with("--c1", str(2 ** 63))],
     "construct: --c1 is too large: a tuple cannot hold a repetition code that long"),
], ids=["bounds-q", "bounds-t", "bounds-n", "bounds-n-prime", "random-t", "random-q",
        "random-n", "random-inf", "row-q", "table-q", "row-q-2-62", "kronecker-q",
        "kronecker-p", "kronecker-inner-t", "kronecker-c1"])
def test_huge_integer_is_usage_error(tmp_path, capsys, argv, line):
    """Refused by name, without the digits, and by sigmac's checks, not Python's overflows."""
    out = tmp_path / "a.json"
    if argv[0] == "construct":
        argv = argv + ["--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", line + "\n")
    assert not out.exists()


def test_a_negative_seed_is_a_seed(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["construct", *TRIVIAL, "--seed", "-5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == -5
    capsys.readouterr()


def test_a_table_refused_part_way_leaves_no_file(tmp_path, capsys):
    # row 1 overflows, and it is built before the header and row 0 are written
    out = tmp_path / "part.csv"
    for target in (["--out", str(out)], []):
        assert run(["pascal", "--table", "--q", BIG, "--nmax", "1", *target]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("pascal: ")
        assert not out.exists()


@pytest.mark.parametrize("argv, start", [
    (["frobnicate"], "sigmac: error: argument subcommand: invalid choice: 'frobnicate'"),
    (["construct", *TRIVIAL], "sigmac construct: error: the following arguments are required: "
                              "--out"),
    (["construct", "--method", "random", "--n", "3", "--tau", "-1/3", "--out", "a.json"],
     "construct: tau must be >= 0\n"),
    (["bounds", "--n", "10", "--q", "2", "--tau", "1/0"],
     "sigmac bounds: error: argument --tau: zero denominator in '1/0'"),
    (["bounds", "--n", "10", "--tau", "nan"], "sigmac bounds: error: argument --tau: invalid "),
    (["construct", "--method", "fast", "--out", "a.json"],
     "sigmac construct: error: argument --method: invalid choice: 'fast'"),
], ids=["subcommand", "missing-out", "negative-tau", "zero-denominator", "nan-tau", "method"])
def test_argparse_error_is_one_line(capsys, argv, start):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(start)


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"], ["bounds", "-h"]])
def test_help_goes_to_stdout(capsys, argv):
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: sigmac") and err == ""
