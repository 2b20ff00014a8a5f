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
from sigmac.linear import BinaryLinearCode


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
    assert capsys.readouterr() == ("", "pascal: q must be >= 2\n")


def test_pascal_identity_sweep(capsys):
    assert run(["pascal", "--identity-sweep", "--qmax", "4", "--nmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_pascal_table_q_replaces_the_qmax_range(capsys):
    # --qmax is not read when --q gives the one alphabet of the table
    assert run(["pascal", "--table", "--q", "3", "--qmax", "1", "--nmax", "2"]) == 0
    assert capsys.readouterr() == (joined_table([3], 2), "")
    assert run(["pascal", "--table", "--qmax", "1", "--nmax", "2"]) == 2
    assert capsys.readouterr() == ("", "pascal: need --qmax >= 2 and --nmax >= 0\n")


def test_identity_sweep_rejects_q(capsys):
    assert run(["pascal", "--identity-sweep", "--q", "9"]) == 2
    assert capsys.readouterr() == ("", "pascal: --identity-sweep takes --qmax, not --q\n")


@pytest.mark.parametrize("argv, error", [
    (["--identity-sweep", "--n", "5", "--qmax", "2", "--nmax", "1"],
     "pascal: --identity-sweep takes --nmax, not --n\n"),
    (["--table", "--n", "5"], "pascal: --table takes --nmax, not --n\n"),
    (["--table", "--q", "3", "--n", "2", "--nmax", "4"], "pascal: --table takes --nmax, not --n\n"),
    (["--row", "--q", "3", "--n", "2", "--qmax", "0", "--nmax", "-4"],
     "pascal: --row takes --q and --n, not --qmax or --nmax\n"),
    (["--row", "--q", "3", "--n", "2", "--qmax", "5"],
     "pascal: --row takes --q and --n, not --qmax or --nmax\n"),
    (["--row", "--q", "3", "--n", "2", "--nmax", "5"],
     "pascal: --row takes --q and --n, not --qmax or --nmax\n"),
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
    argv = ["pascal", "--table", "--qmax", str(qmax), "--nmax", str(nmax)]
    if q is not None:
        argv += ["--q", str(q)]
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
    assert run(["construct", "--method", "random", "--q", "3", "--n", "8",
                "--tau", "1/2", "--out", str(tmp_path / "x.json")]) == 2
    assert "nonexistence" in capsys.readouterr().err


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


def test_construct_kronecker_rejects_bad_epsilon(tmp_path, capsys):
    code = run(["construct", "--method", "kronecker", "--q", "3",
                "--epsilon", "1/100", "--p", "3", "--s", "2", "--r", "1",
                "--outer", "repetition", "--c1", "6",
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "eps1" in capsys.readouterr().err
    # --n 0 reaches the library's check; only a missing --n is reported as such
    for n, message in ((["--n", "0"], "need n >= 1"), ([], "--n is required")):
        assert run(["construct", "--method", "trivial", *n,
                    "--out", str(tmp_path / "t.json")]) == 2
        assert capsys.readouterr().err == f"construct: {message}\n"


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
    assert code.decoder(code.design_t, None)(core.encode(code.matrix, u)) == u


def test_construct_kronecker_inner_space_above_budget(tmp_path, capsys):
    argv = ["construct", "--method", "kronecker", "--q", "3", "--epsilon", "1/16",
            "--p", "4", "--s", "3", "--r", "1", "--outer", "repetition", "--c1", "6",
            "--inner-t", "1", "--out", str(tmp_path / "k.json")]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "construct: q^(p*s) = 531441 exceeds the exhaustive budget 300000; "
        "choose a smaller --p or --s"]


def test_construct_kronecker_negative_inner_t(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["construct", *KRONECKER[:-1], "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "construct: t_inner must be >= 0, got -1\n"
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
    assert capsys.readouterr() == ("", f"construct: max_attempts must be >= 1, got {attempts}\n")
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
