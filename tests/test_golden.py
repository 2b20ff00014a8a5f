"""Artifact bytes and simulate, sweep and bounds output pinned across versions.

Each digest is that of a build known to write these bytes.  A change that
alters one changes what users' files hold or what a seeded run prints; it
must say so in CHANGES.md and re-pin the digest.
"""

import hashlib

import pytest

from sigmac import cli

KRONECKER = ["--method", "kronecker", "--q", "3", "--epsilon", "1/16", "--p", "3",
             "--s", "2", "--inner-t", "1"]

# construct argv -> SHA-256 of the written artifact
ARTIFACTS = {
    "trivial": (["--method", "trivial", "--n", "4"],
                "816c4bcdd17ed8fec18e8a1a7cfc8b2750275f7ffc8c91aa30904e6db11a3585"),
    "random": (["--method", "random", "--q", "3", "--n", "8", "--t", "1", "--seed", "7",
                "--k", "12"],
               "28a04feff3bae62f79be975b8a2cc95af35760981df1810a6d725f4a219497e0"),
    "random-tau": (["--method", "random", "--q", "3", "--n", "6", "--tau", "1/10",
                    "--seed", "3"],
                   "1506b3c2f60fbc4d2b91c95e08eb302c3ff352eae139a9208ba8ff95e415bc06"),
    "rs-augment": (["--method", "rs-augment", "--n", "4", "--t", "1"],
                   "38c6380539ab4b7c55a6415fb1b5af5e772f2440cafed8fa6eaf74e8978c3095"),
    "kronecker-repetition": (
        [*KRONECKER, "--r", "1", "--outer", "repetition", "--c1", "6"],
        "c405f8f3e4121c74e6247224da1a2369227a5e4c19de44a32b1e8384630c0e16"),
    "kronecker-search": (
        [*KRONECKER, "--r", "3", "--seed", "5"],
        "a10b9d2cd4aa2f4e5b88258421f68abf4328d7b942552038f62e3ccf483191f9"),
}

RANDOM_MODE = "random-positions-random-values"

# artifact -> stdout of `simulate --rounds 200 --seed 3`, which prints nothing on stderr
CLEAN_RUNS = {
    "random": f"simulate: rounds=200 t=1 mode={RANDOM_MODE} failures=0\n",
    "rs-augment": f"simulate: rounds=200 t=1 mode={RANDOM_MODE} failures=0\n",
    "kronecker-repetition": f"simulate: rounds=200 t=5 mode={RANDOM_MODE} failures=0\n",
    "kronecker-search": f"simulate: rounds=200 t=3 mode={RANDOM_MODE} failures=0\n",
}

# Runs above the design budget: their stderr lists the first ten failed
# rounds with the transmitted and decoded vectors and the errors drawn.
# (artifact, extra argv, stdout, SHA-256 of stderr)
FAILING_RUNS = [
    ("random", ["--t", "3", "--error-mode", "worst-case-from-witness"],
     "simulate: rounds=50 t=3 mode=worst-case-from-witness failures=50\n",
     "808103b8e351ab55c49e3bc6864dfb0511b6b20cc38805fffb8fa18346e95e00"),
    ("rs-augment", ["--t", "3", "--error-mode", "worst-case-from-witness"],
     "simulate: rounds=50 t=3 mode=worst-case-from-witness failures=50\n",
     "e249bd345db63b92b5100f9e8a696d518daffb7299e245662c230fe93fafc3b2"),
    ("kronecker-search", ["--t", "8"],
     f"simulate: rounds=50 t=8 mode={RANDOM_MODE} failures=28\n",
     "897bacacbb77886c9eea2e5db31278636fae0487920fcc27732ae9bd7ed83c02"),
]


# stdout of `pascal --identity-sweep --qmax 8 --nmax 40`
SWEEP = "identity sweep: 13034 checks, 0 failures\n"

BOUNDS_GRID = ["--n", "1024,16384", "--q", "2,3,5"]
# extra argv -> SHA-256 of the bounds table written to --out
BOUNDS = {
    "tau-csv": (["--tau", "0.1", "--format", "csv"],
                "2d91614faaa416f6f45ff284bdce99abde53328ae8c651d7f7a83f0f8df0dc19"),
    "t-json": (["--t", "1", "--format", "json"],
               "9704dbcb10dca1efbae046c0fc8f603ceb13ca9b997fe40d57a8ca594674a282"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (argv, _) in ARTIFACTS.items():
        paths[name] = work / f"{name}.json"
        assert cli.main(["construct", *argv, "--out", str(paths[name])]) == 0
    return paths


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_artifact_bytes_are_pinned(artifacts, name):
    assert sha256(artifacts[name].read_bytes()) == ARTIFACTS[name][1]


@pytest.mark.parametrize("name", list(CLEAN_RUNS))
def test_simulate_output_is_pinned(artifacts, capsys, name):
    capsys.readouterr()
    assert cli.main(["simulate", "--in", str(artifacts[name]), "--rounds", "200",
                     "--seed", "3"]) == 0
    assert capsys.readouterr() == (CLEAN_RUNS[name], "")


@pytest.mark.parametrize("name, extra, stdout, stderr_digest", FAILING_RUNS,
                         ids=[run[0] for run in FAILING_RUNS])
def test_failed_rounds_are_pinned(artifacts, capsys, name, extra, stdout, stderr_digest):
    capsys.readouterr()
    assert cli.main(["simulate", "--in", str(artifacts[name]), "--rounds", "50",
                     "--seed", "3", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert len(captured.err.splitlines()) == 10
    assert sha256(captured.err.encode()) == stderr_digest


def test_identity_sweep_output_is_pinned(capsys):
    capsys.readouterr()
    assert cli.main(["pascal", "--identity-sweep", "--qmax", "8", "--nmax", "40"]) == 0
    assert capsys.readouterr() == (SWEEP, "")


@pytest.mark.parametrize("name", list(BOUNDS))
def test_bounds_table_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "bounds.out"
    assert cli.main(["bounds", *BOUNDS_GRID, *BOUNDS[name][0], "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == BOUNDS[name][1]
