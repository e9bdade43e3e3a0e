"""CLI tests: exit codes, determinism, round-trip serialization."""

import hashlib
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarmub import cli, mub, polar, spread
from polarmub.cli import deserialize_spread, get_space, run, serialize_spread
from polarmub.errors import ScaleExceeded


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_construct_classical_w32(capsys):
    code, out = run_capture(
        capsys, ["construct", "--d", "2", "--n", "2", "--method", "classical"]
    )
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert result["size"] == 5
    assert result["complete"] is True
    assert result["is_spread"] is True
    assert len(result["spread"]["generators"]) == 5


def test_construct_is_byte_identical(capsys):
    argv = ["construct", "--d", "3", "--n", "2", "--method", "sr", "--k", "0"]
    _, out1 = run_capture(capsys, argv)
    _, out2 = run_capture(capsys, argv)
    assert out1 == out2


def test_construct_sr_w33(capsys):
    code, out = run_capture(
        capsys, ["construct", "--d", "3", "--n", "2", "--method", "sr", "--k", "0"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["complete"] is True
    assert result["size"] == 8
    assert result["is_spread"] is False


def test_construct_uset_w52(capsys):
    code, out = run_capture(
        capsys, ["construct", "--d", "2", "--n", "3", "--method", "uset"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["complete"] is True
    assert result["size"] == 5
    assert result["carrier_meets"] == 5


def test_verify_regularity(capsys):
    code, out = run_capture(
        capsys, ["verify", "--d", "3", "--n", "2", "--check", "regularity"]
    )
    assert code == 0
    assert json.loads(out)["result"]["regular"] is True


def test_verify_class_roundtrip(capsys):
    code, out = run_capture(
        capsys, ["verify", "--d", "2", "--n", "2", "--check", "class-roundtrip"]
    )
    assert code == 0
    assert json.loads(out)["result"]["failures"] == 0


def test_verify_incomplete_file_exits_2(tmp_path, capsys):
    space = get_space(2, 2)
    s = spread.construct_symplectic_spread(space)
    ps = spread.partial_spread(space, s.members[:2])
    path = tmp_path / "pair.json"
    path.write_bytes(serialize_spread(ps, "json"))
    code, out = run_capture(
        capsys,
        ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)],
    )
    assert code == 2
    assert json.loads(out)["result"]["complete"] is False


@pytest.mark.parametrize("check", ["regularity", "class-roundtrip"])
def test_verify_in_is_refused_outside_complete(capsys, check):
    argv = ["verify", "--d", "2", "--n", "2", "--check", check, "--in", "/nonexistent"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --in applies only to --check complete\n"


def test_search_exhaustive_w32(capsys):
    code, out = run_capture(
        capsys, ["search", "--d", "2", "--n", "2", "--mode", "exhaustive"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count_by_size"] == {"3": 20, "5": 6}


def test_search_first_of_size_hit_and_miss(capsys):
    code, out = run_capture(
        capsys,
        ["search", "--d", "3", "--n", "2", "--mode", "first-of-size", "--size", "8"],
    )
    assert code == 0
    assert json.loads(out)["result"]["found"] is True
    code, _ = run_capture(
        capsys,
        ["search", "--d", "2", "--n", "2", "--mode", "first-of-size", "--size", "4"],
    )
    assert code == 2


def test_search_size_beyond_a_spread_answers_at_once(capsys):
    argv = ["search", "--d", "5", "--n", "2", "--mode", "first-of-size", "--size", "27"]
    assert run_within_a_second(argv) == 2
    assert json.loads(capsys.readouterr().out)["result"]["found"] is False


def test_conjecture_brute_force(capsys):
    code, out = run_capture(
        capsys, ["conjecture", "--d", "2", "--n", "3", "--brute-force"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "Equality"
    assert result["brute_force"]["subsets_total"] == 126
    assert result["brute_force"]["exactly_one"] == 126


@pytest.mark.parametrize(
    "d, n, subsets, exactly_one, at_least_one",
    [(2, 4, 24310, 12240, 22270), (3, 3, 13123110, 1092, 1092)],
    ids=["W_7(2)", "W_5(3)"],
)
def test_conjecture_brute_force_beyond_the_sweep(capsys, d, n, subsets, exactly_one, at_least_one):
    code, out = run_capture(
        capsys, ["conjecture", "--d", str(d), "--n", str(n), "--brute-force"]
    )
    assert code == 0
    summary = json.loads(out)["result"]["brute_force"]
    assert summary["subsets_total"] == subsets
    assert summary["exactly_one"] == exactly_one
    assert summary["at_least_one"] == at_least_one


def test_classify_w32(capsys):
    code, out = run_capture(capsys, ["classify", "--d", "2", "--n", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["orbits"] == 1
    assert result["group_order"] == 720
    assert result["complete_non_spreads"] == 20


def test_classify_w33(capsys):
    code, out = run_capture(capsys, ["classify", "--d", "3", "--n", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {
        "complete_non_spreads": 567,
        "group_order": 25920,
        "orbit_representatives": [[0, 5, 8, 12, 22, 28, 30, 35], [0, 5, 8, 12, 31], [0, 5, 8, 13, 22]],
        "orbits": 3,
        "sizes": [5, 8],
    }


def test_classify_imports_no_sympy():
    # sympy's import alone takes about half a second and doubles peak RSS.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys; from polarmub import cli; "
        "code = cli.run(['classify', '--d', '2', '--n', '2']); "
        "print(code, 'sympy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 False"


# Exhaustive search, and so the census that classify walks, stops at W_5(2).
@pytest.mark.parametrize("d, n", [("5", "2"), ("2", "4")])
def test_classify_refuses_beyond_the_census_spaces(capsys, d, n):
    assert run(["classify", "--d", d, "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "ScaleExceeded" in captured.err


def test_mub_from_spread(capsys):
    code, out = run_capture(
        capsys, ["mub", "--d", "2", "--n", "2", "--from-spread", "classical"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["valid"] is True
    assert result["order"] == 5
    assert result["max_deviation"] < 1e-9
    assert result["target_overlap"] == 0.25


def test_mub_nonfinite_deviation_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(mub, "unbiasedness", lambda p, q: float("nan"))
    assert run(["mub", "--d", "2", "--n", "2", "--from-spread", "classical"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: NonDiagonalizable: overlap deviation nan")


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_mub_tolerance_outside_open_interval_is_refused(capsys, tolerance):
    argv = ["mub", "--d", "2", "--n", "2", "--tolerance", tolerance]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "tolerance" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
def test_nonfinite_tolerance_is_refused_by_every_subcommand(capsys, tolerance):
    assert run(["construct", "--d", "2", "--n", "2", f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "tolerance" in captured.err


def test_nan_in_a_payload_is_refused_not_rendered(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_construct", lambda args: ({"value": float("nan")}, True))
    assert run(["construct", "--d", "2", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "JSON" in captured.err


def test_usage_error_exit_code(capsys):
    assert run(["construct", "--d", "2"]) == 1
    assert run(["bogus"]) == 1


def test_scale_error_exit_code(capsys):
    assert run(["search", "--d", "5", "--n", "2", "--mode", "exhaustive"]) == 1


def test_search_size_with_exhaustive_is_refused(capsys):
    argv = ["search", "--d", "2", "--n", "2", "--mode", "exhaustive", "--size", "5"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--size" in captured.err


@pytest.mark.parametrize("size", ["0", "-2"])
def test_search_size_below_one_is_refused(capsys, size):
    argv = ["search", "--d", "3", "--n", "2", "--mode", "first-of-size", "--size", size]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--size" in captured.err


def test_oversized_space_is_refused_before_the_field(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("FieldSpec built for an oversized space")

    monkeypatch.setattr(polar, "FieldSpec", refuse)
    assert run(["search", "--d", "2", "--n", "40", "--mode", "exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "ScaleExceeded" in captured.err


SUBCOMMAND_ARGS = {
    "construct": [],
    "verify": ["--check", "complete"],
    "search": ["--mode", "exhaustive"],
    "conjecture": [],
    "classify": [],
    "mub": [],
}


def run_within_a_second(argv):
    """run(argv), failing instead of hanging when it takes over a second."""

    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran for over a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "d, n, error",
    [
        ("4", "2", "ValueError"),
        ("1", "2", "ValueError"),
        ("2", "0", "ValueError"),
        ("2", "300000", "ScaleExceeded"),
    ],
    ids=["d-4", "d-1", "n-0", "n-300000"],
)
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_bad_order_or_rank_is_refused_at_once(capsys, command, d, n, error):
    argv = [command, "--d", d, "--n", n] + SUBCOMMAND_ARGS[command]
    assert run_within_a_second(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {error}:")


def test_spread_file_with_a_huge_rank_is_refused_at_once(tmp_path, capsys):
    # The CLI compares the file's rank with --n before building anything;
    # read on its own, the file is refused by the space's scale guard.
    path = tmp_path / "spread.json"
    path.write_text('{"d": 2, "n": 300000, "generators": []}')
    argv = ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)]
    assert run_within_a_second(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: {path} holds a spread with d=2 n=300000, not d=2 n=2\n"
    )
    with pytest.raises(ScaleExceeded, match=r"too many points for W_599999\(2\)$"):
        deserialize_spread(path.read_bytes())


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_capture(
        capsys,
        ["construct", "--d", "2", "--n", "2", "--out", str(path)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["result"]["size"] == 5


def test_out_to_a_missing_directory_is_refused(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert run(["construct", "--d", "2", "--n", "2", "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: FileNotFoundError:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mub", "--d", "3", "--n", "4"], "dense dimension 81 exceeds 32"),
        (
            ["conjecture", "--d", "2", "--n", "9", "--brute-force"],
            "too many points for W_17(2)",
        ),
    ],
    ids=["mub-dense-dimension", "conjecture-brute-force"],
)
def test_scale_limits_are_refused_before_the_catalog(capsys, monkeypatch, argv, message):
    def refuse(self):
        raise AssertionError("generator catalog built for a refused request")

    cli.get_space.cache_clear()
    monkeypatch.setattr(polar.PolarSpace, "_enumerate_generators", refuse)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ScaleExceeded: {message}\n"


# sha256 of stdout per command, pinned before the reports were read from
# their result records, so any byte the JSON or text rendering changes shows.
# The mub payloads carry a float deviation, so they pin its numerics too,
# at dimensions 4, 9, 8, 25 and 16.
STDOUT_PINS = {
    "conjecture --d 3 --n 2":
        (0, "00ca9e7b2f19652b5c508360a2aa3163bf3fe4efe1a134eb44b75b459e59d167"),
    "conjecture --d 13 --n 40":
        (0, "d18ba44a5f498d2ee282ee43bb8627c9132c09f6c83774d1d142b3ee0da9cfc6"),
    "conjecture --d 3 --n 3 --brute-force --format text":
        (0, "8bfdc01ea5dbdd99ba08cc069d03b8e5705738462a3834feb9ddd719db12379d"),
    "mub --d 2 --n 2 --from-spread classical --format text":
        (0, "b826b1477db1c0f8c71edd7c49542f702e1d702b814f88e1d8aba2cb7617d827"),
    "mub --d 3 --n 2 --from-spread sr":
        (0, "719526b6ffb8907d0c4aa37eb42c4f0d5a605cf12f8627a6305b5aefdf5133d8"),
    "mub --d 2 --n 3 --from-spread uset":
        (0, "9cef9aa4fd0ee9c835786c295214371f58da29bb92de7f5fb65fb7fa3a0b2494"),
    "mub --d 5 --n 2 --from-spread classical":
        (0, "4bd702d0bf96d3017ff6c9a4f7ef3fdb110fc1c2362eed693b60026162b2ccaa"),
    "mub --d 2 --n 4 --from-spread classical":
        (0, "735fae1e7daf72f69c7849c8b26d8f91012ea6c1241ec6673ac6367f26c7b7d8"),
    "construct --d 3 --n 2 --method tu --format text":
        (0, "bd84bbc73087e34f17e6fbf1d9cebc45b49fd8e7c9f6eee5743ce0ef5bd218b0"),
    "construct --d 5 --n 2 --method uset --format text":
        (0, "c00d92ab27d2fc62e70b9a9de29a85424195fb5b5eab1c3203b8dbcf7d62eca2"),
    "verify --d 2 --n 2 --check complete --format text":
        (0, "941174e325efbef4a18577c7bb0568cae251baf10938808e28988c50df4565da"),
    "classify --d 2 --n 2":
        (0, "e5e92f0175b3a4b55ff8932e265b7b1909e9d733dbbebb128e11d202c98fc0f7"),
}


@pytest.mark.parametrize("command", sorted(STDOUT_PINS))
def test_stdout_bytes_are_pinned(capsys, command):
    code, out = run_capture(capsys, command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_PINS[command]


# sha256 of the help text at COLUMNS=80, pinned while every call built its
# own parser and each subparser took the common options one by one.
HELP_PINS = {
    "--help": "558018e63b0bd680984c0d03bdf4eb813315629e9eb2e83339ecf8a17d96dc00",
    "construct --help": "5f5d2b19d5a47ca001550b9aaa6f3ec1da5285f5cf377cfd29656d4cefef4139",
    "verify --help": "c1735bab0a26f4c825c3c8c367d1bb250430c10988612ff806f99fd6c3100062",
    "search --help": "281d0854e416b96a881d2c79791f7766db8b35550055065d78b4759f3da57fa4",
    "conjecture --help": "11812faed7b483b7f47db9171b385211be0062c41589acdb40efe108dfc90260",
    "classify --help": "102aa3df8eeba2cac3e5d5bc6040c84f588146576eea280ec38300024caa71f5",
    "mub --help": "0fdba3b085deb95744e9e7f1cbcf2318912f54e8942d6ff2887bb5083cf1be4b",
}

USAGE_ERROR_PINS = {
    "construct --d 2": "usage error: the following arguments are required: --n\n",
    "bogus": (
        "usage error: argument command: invalid choice: 'bogus' (choose from "
        "'construct', 'verify', 'search', 'conjecture', 'classify', 'mub')\n"
    ),
}


@pytest.mark.parametrize("command", sorted(HELP_PINS))
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        run(command.split())
    captured = capsys.readouterr()
    assert exit_.value.code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP_PINS[command]


@pytest.mark.parametrize("command", sorted(USAGE_ERROR_PINS))
def test_usage_error_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(command.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == USAGE_ERROR_PINS[command]


# -- one parser per process, reused by every run


@pytest.mark.parametrize("errors_first", [True, False], ids=["errors-first", "pins-first"])
def test_reused_parser_keeps_every_pin_between_usage_errors(capsys, errors_first):
    errors = ["construct --d 2", "bogus", "search --d 2 --n 2 --mode first-of-size --size 0"]
    for i, command in enumerate(sorted(STDOUT_PINS)):
        error = errors[i % len(errors)]
        for argv in (error, command) if errors_first else (command, error):
            code = run(argv.split())
            captured = capsys.readouterr()
            if argv == error:
                assert code == 1 and captured.out == ""
                assert captured.err == USAGE_ERROR_PINS.get(error, captured.err)
                assert captured.err.count("\n") == 1 and captured.err.startswith("usage error:")
            else:
                digest = hashlib.sha256(captured.out.encode()).hexdigest()
                assert (code, digest) == STDOUT_PINS[command]


def test_parser_is_built_on_the_first_run_and_reused():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from polarmub import cli
at_import = len(built)
argvs = [["conjecture", "--d", "3", "--n", "2"], ["construct", "--d", "2", "--n", "2"], ["bogus"]]
codes = [cli.run(argvs[0])]
after_first = len(built)
codes += [cli.run(argvs[i % 3]) for i in range(1, 20)]
print(at_import, after_first == len(built) > 0, built.count("polarmub"), sorted(set(codes)))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 True 1 [0, 1]"


# -- the README's CLI examples run as written


def readme_cli_examples():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [" ".join(words[1:]) for words in examples if words and words[0] == "polarmub"]


def test_readme_has_cli_examples():
    assert len(readme_cli_examples()) == 12


@pytest.mark.parametrize("command", readme_cli_examples(), ids=lambda c: "_".join(c.split()))
def test_readme_cli_example_exits_0(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    s = spread.construct_symplectic_spread(get_space(2, 2))
    (tmp_path / "spread.json").write_bytes(serialize_spread(s, "json"))
    assert run(command.split()) == 0
    assert capsys.readouterr().out.startswith("{")


def test_readme_cli_examples_build_each_regular_spread_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    s = spread.construct_symplectic_spread(get_space(2, 2))
    (tmp_path / "spread.json").write_bytes(serialize_spread(s, "json"))
    built = []
    construct = spread.construct_symplectic_spread

    def counted(space):
        built.append((space.d, space.n))
        return construct(space)

    monkeypatch.setattr(spread, "construct_symplectic_spread", counted)
    get_space.cache_clear()
    cli._regular_spread.cache_clear()
    commands = readme_cli_examples()
    for command in commands * 2:
        assert run(command.split()) == 0
    capsys.readouterr()
    assert sorted(built) == [(2, 2), (2, 3), (3, 2), (5, 2)]


def test_text_format_renders(capsys):
    code, out = run_capture(
        capsys, ["construct", "--d", "2", "--n", "2", "--format", "text"]
    )
    assert code == 0
    assert "result.size = 5" in out


# -- serialization round trips


@st.composite
def partial_spreads(draw):
    """A disjoint member set: drawn generators, each kept if it meets none before."""
    space = get_space(*draw(st.sampled_from([(2, 2), (3, 2), (2, 3)])))
    picks = st.lists(st.integers(0, space.num_generators - 1), unique=True)
    members, coverage = [], 0
    for idx in draw(picks):
        mask = space.generator(idx).point_mask
        if not mask & coverage:
            members.append(idx)
            coverage |= mask
    return spread.partial_spread(space, members)


@pytest.mark.parametrize("fmt", ["json", "text"])
@settings(derandomize=True, database=None, max_examples=100)
@given(ps=partial_spreads())
def test_serialize_round_trip(fmt, ps):
    back = deserialize_spread(serialize_spread(ps, fmt))
    assert back.members == ps.members
    assert back.coverage == ps.coverage


def test_serialize_empty_spread():
    space = get_space(2, 2)
    ps = spread.partial_spread(space, [])
    data = json.loads(serialize_spread(ps, "json").decode())
    assert data == {"d": 2, "n": 2, "generators": []}
    assert deserialize_spread(serialize_spread(ps, "json")).members == ()


def test_serialize_refuses_an_unknown_format():
    ps = spread.construct_symplectic_spread(get_space(2, 2))
    with pytest.raises(cli.UsageError, match="unknown format 'yaml'"):
        serialize_spread(ps, "yaml")


# -- rejected input: exit 1 and one line on stderr


def assert_usage_error(capsys, argv, needle):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("usage error:")
    assert needle in err


@pytest.mark.parametrize(
    "content",
    [
        '{"n": 2, "generators": []}',
        "[[1, 0, 0, 0], [0, 0, 1, 0]]",
        "envelope",
    ],
    ids=["no-d-key", "list-shaped", "construct-envelope"],
)
def test_verify_rejects_malformed_spread_file(tmp_path, capsys, content):
    path = tmp_path / "spread.json"
    if content == "envelope":
        assert run(["construct", "--d", "2", "--n", "2", "--out", str(path)]) == 0
        capsys.readouterr()
    else:
        path.write_text(content)
    argv = ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)]
    assert_usage_error(capsys, argv, "not a json spread file")


W32_SPREAD_JSON = (
    '{"d": 2, "n": 2, "generators": [[[0, 1, 0, 0], [0, 0, 0, 1]], '
    '[[1, 0, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 1], [0, 1, 1, 1]], '
    '[[1, 0, 1, 1], [0, 1, 1, 0]], [[1, 1, 0, 0], [0, 0, 1, 1]]]}'
)


@pytest.mark.parametrize(
    "fmt, content, needle",
    [
        ("json", W32_SPREAD_JSON.replace('"d": 2', '"d": 2.9'), "2.9"),
        ("json", W32_SPREAD_JSON.replace('"n": 2', '"n": 2.0'), "2.0"),
        ("json", W32_SPREAD_JSON.replace('"d": 2', '"d": true'), "True"),
        ("json", W32_SPREAD_JSON.replace("0, 1", "0, true"), "True"),
        ("json", W32_SPREAD_JSON.replace("0", "0.5").replace("1,", "1.5,"), "0.5"),
        ("json", W32_SPREAD_JSON.replace("0", "2").replace("1", "3"), "[0, 2)"),
        ("json", W32_SPREAD_JSON.replace("[0, 1, 0, 0]", "[0, -1, 0, 0]"), "[0, 2)"),
        ("text", "d=2 n=2\n1,0,0,0|0,0,3,0\n", "[0, 2)"),
        ("text", "d=2 n=2\n1,0,0,0|0,0,-1,0\n", "[0, 2)"),
    ],
    ids=[
        "float-d", "float-n", "bool-d", "bool-entry", "float-entries",
        "entries-2-and-3", "negative-entry", "text-entry-3", "text-negative-entry",
    ],
)
def test_spread_file_values_must_be_residues(tmp_path, capsys, fmt, content, needle):
    assert deserialize_spread(W32_SPREAD_JSON.encode()).is_spread
    path = tmp_path / "spread"
    path.write_text(content)
    argv = ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)]
    assert_usage_error(capsys, argv + ["--format", fmt], needle)


W32_SPREAD_TEXT = (
    "d=2 n=2\n0,1,0,0|0,0,0,1\n1,0,0,0|0,0,1,0\n1,0,0,1|0,1,1,1\n"
    "1,0,1,1|0,1,1,0\n1,1,0,0|0,0,1,1\n"
)


@pytest.mark.parametrize(
    "fmt, content",
    [
        ("json", W32_SPREAD_JSON.replace('{"d": 2', '{"d": 3, "d": 2')),
        ("json", W32_SPREAD_JSON.replace('"n": 2', '"n": 2, "generators": []')),
        ("text", W32_SPREAD_TEXT.replace("d=2 n=2", "d=3 n=2 d=2")),
        ("text", W32_SPREAD_TEXT.replace("n=2", "n=+2")),
        ("text", W32_SPREAD_TEXT.replace("0,1,0,0|", "0_0,1,0,0|")),
        ("text", W32_SPREAD_TEXT.replace("0,1,0,0|", "+0,1,0,0|")),
        ("text", W32_SPREAD_TEXT.replace("0,1,0,0|", " 0,1,0,0|")),
        ("text", W32_SPREAD_TEXT.replace("0,1,0,0|", "\u0660,1,0,0|")),
    ],
    ids=[
        "json-repeated-d", "json-repeated-generators",
        "text-repeated-d", "text-plus-n", "text-underscore-entry", "text-plus-entry",
        "text-space-entry", "text-arabic-indic-entry",
    ],
)
def test_spread_file_with_a_repeated_key_or_a_loose_integer_is_refused(
    tmp_path, capsys, fmt, content
):
    # json.loads and dict() keep a repeated key's last copy, and int() reads
    # more than -?[0-9]+; each file here was once answered as the spread it
    # ends with.
    path = tmp_path / "spread"
    argv = ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)]
    path.write_text(W32_SPREAD_TEXT)
    assert run(argv) == 0
    capsys.readouterr()
    path.write_text(content)
    assert_usage_error(capsys, argv, f"not a {fmt} spread file")


def test_spread_file_must_match_space_flags(tmp_path, capsys):
    path = tmp_path / "w33.json"
    path.write_bytes(serialize_spread(spread.construct_symplectic_spread(get_space(3, 2))))
    for command in (
        ["verify", "--check", "complete", "--in", str(path)],
        ["mub", "--from-file", str(path)],
    ):
        argv = command[:1] + ["--d", "2", "--n", "2"] + command[1:]
        assert_usage_error(capsys, argv, "d=3 n=2, not d=2 n=2")


@pytest.mark.parametrize(
    "command",
    [["verify", "--check", "complete", "--in"], ["mub", "--from-file"]],
    ids=["verify-in", "mub-from-file"],
)
def test_spread_file_of_another_space_builds_no_catalog(tmp_path, capsys, monkeypatch, command):
    # The W_9(2) catalog has 75 735 generators; a file naming that space under
    # --d 2 --n 2 is refused from its header, before any catalog is built.
    calls = []
    enumerate_generators = polar.PolarSpace._enumerate_generators

    def counted(space):
        calls.append(space)
        return enumerate_generators(space)

    cli.get_space.cache_clear()
    monkeypatch.setattr(polar.PolarSpace, "_enumerate_generators", counted)
    path = tmp_path / "w92.json"
    rows = [[int(c == r) for c in range(10)] for r in range(0, 10, 2)]
    path.write_text(json.dumps({"d": 2, "n": 5, "generators": [rows]}))
    argv = command[:1] + ["--d", "2", "--n", "2"] + command[1:] + [str(path)]
    assert_usage_error(capsys, argv, "holds a spread with d=2 n=5, not d=2 n=2")
    assert calls == []


@pytest.mark.parametrize(
    "command",
    [["verify", "--check", "complete", "--in"], ["mub", "--from-file"]],
    ids=["verify-in", "mub-from-file"],
)
@pytest.mark.parametrize("path", ["", "/nonexistent"], ids=["empty", "missing"])
def test_spread_file_that_names_no_file_is_refused(capsys, command, path):
    # An empty path names no file; it must not fall back to the regular spread.
    argv = command[:1] + ["--d", "2", "--n", "2"] + command[1:] + [path]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: FileNotFoundError: [Errno 2] No such file or directory: {path!r}\n"
    )


def test_spread_file_rows_that_span_no_generator_are_refused(tmp_path, capsys):
    # e1 and f1 span a hyperbolic line, not a generator.
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "n": 2, "generators": [[[1, 0, 0, 0], [0, 1, 0, 0]]]}')
    argv = ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: rows ((1, 0, 0, 0), (0, 1, 0, 0)) do not span a generator of W_3(2)\n"
    )


def test_spread_file_rows_of_the_wrong_length_are_refused(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text('{"d": 2, "n": 2, "generators": [[[1, 0, 0], [0, 0, 1]]]}')
    argv = ["verify", "--d", "2", "--n", "2", "--check", "complete", "--in", str(path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: DimensionMismatch: rows must have length 4, got (1, 0, 0)\n"


@pytest.mark.parametrize(
    "command",
    [["verify", "--check", "complete", "--in"], ["mub", "--from-file"]],
    ids=["verify-in", "mub-from-file"],
)
def test_spread_file_nested_past_the_recursion_limit_is_refused(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000)
    argv = command[:1] + ["--d", "2", "--n", "2"] + command[1:] + [str(path)]
    assert_usage_error(capsys, argv, "RecursionError")


# Every subcommand, construction method and check at rank 1, where every
# generator lies in the regular spread.
RANK_ONE_ARGS = [
    *(["construct", "--method", m] for m in ("classical", "tu", "sr", "uset")),
    ["mub"],
    *(["mub", "--from-spread", m] for m in ("classical", "tu", "sr", "uset")),
    *(["verify", "--check", c] for c in ("complete", "regularity", "class-roundtrip")),
    ["search", "--mode", "exhaustive"],
    ["search", "--mode", "first-of-size", "--size", "2"],
    ["conjecture"],
    ["conjecture", "--brute-force"],
    ["classify"],
]


@pytest.mark.parametrize("args", RANK_ONE_ARGS, ids=lambda a: "_".join(a).replace("--", ""))
@pytest.mark.parametrize("d", ["2", "3", "13"])
def test_every_command_at_rank_one_answers_or_refuses_in_one_line(capsys, d, args):
    code = run(args[:1] + ["--d", d, "--n", "1"] + args[1:])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.out == "" and captured.err.count("\n") == 1
    else:
        json.loads(captured.out)


def test_tu_at_rank_one_is_refused(capsys):
    for argv in (
        ["construct", "--d", "2", "--n", "1", "--method", "tu"],
        ["mub", "--d", "3", "--n", "1", "--from-spread", "tu"],
    ):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: GeneratorInSpread: every generator of W_1({argv[2]}) "
            "lies in its regular spread\n"
        )


@pytest.mark.parametrize("value", ["-1", "999"])
@pytest.mark.parametrize(
    "flag,method",
    [("--u-index", "tu"), ("--l-index", "sr"), ("--m-index", "sr"), ("--chi-index", "uset")],
)
def test_generator_index_out_of_range(capsys, flag, method, value):
    argv = ["construct", "--d", "3", "--n", "2", "--method", method, flag, value]
    assert_usage_error(capsys, argv, f"{flag} must lie in [0, 40), got {value}")


# The output of each construction flag its method reads, pinned before any
# unread flag was refused: the exit code, then stdout's sha256, or at exit 1
# the stderr line.  Run in a directory holding the W_3(2) regular spread as
# spread.json, since the --from-file path is recorded in the report.
READ_FLAG_PINS = {
    "construct --d 3 --n 2 --method tu --u-index 0":
        (1, "error: GeneratorInSpread: u already belongs to the spread\n"),
    "construct --d 3 --n 2 --method tu --u-index 7":
        (0, "793923c98fec4a64e473d339db5355b122aef25df7651c616ae1715548ca7d90"),
    "construct --d 3 --n 2 --method sr --l-index 0":
        (0, "ba6bb5522d6fd6188ae3e4d5dec3da45dfbc578c77c41d7f345389b00545386b"),
    "construct --d 3 --n 2 --method sr --m-index 0":
        (1, "error: GeneratorInSpread: L and M must be distinct members of the spread\n"),
    "construct --d 3 --n 2 --method sr --l-index 5 --m-index 8 --k 0":
        (0, "3d75c5da357e3c7476984080c53f71de1d1bb9f36b37b9e01f3a3d272a252dae"),
    "construct --d 3 --n 2 --method sr --k 1":
        (1, "error: BadK: k must lie in [0, 0]\n"),
    "construct --d 5 --n 2 --method sr --k 1":
        (0, "7f2244bf67d656a99113eb7042b413e244cb2859ea50abdf400a6279d92b2114"),
    "construct --d 3 --n 2 --method uset --chi-index 0":
        (1, "error: NoSuitableChi: carrier must lie outside the spread\n"),
    "construct --d 3 --n 2 --method uset --chi-index 7":
        (0, "1c0ebd8631bdd438d223ec8398a94f29b0013b7a98c849de9bf39048f8cab3a7"),
    "mub --d 2 --n 2 --from-spread sr --k 1":
        (1, "error: BadK: odd order required\n"),
    "mub --d 5 --n 2 --from-spread sr --k 1":
        (0, "5b28acf9a0bf0f504485b2b4b17571f11d115e35ed44b95cf8e4825416f96519"),
    "mub --d 2 --n 2 --from-file spread.json":
        (0, "dc2a742b914701ff0554ca7795cd79a5b00cd27624d4a7145048b2901c34ed4a"),
}


@pytest.mark.parametrize("command", sorted(READ_FLAG_PINS))
def test_read_construction_flags_are_pinned(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    s = spread.construct_symplectic_spread(get_space(2, 2))
    (tmp_path / "spread.json").write_bytes(serialize_spread(s, "json"))
    code = run(command.split())
    captured = capsys.readouterr()
    if code == 1:
        assert (code, captured.out) == (1, "")
        assert (code, captured.err) == READ_FLAG_PINS[command]
    else:
        assert (code, hashlib.sha256(captured.out.encode()).hexdigest()) == READ_FLAG_PINS[command]


# The one construction method that reads each flag; every other method
# refuses it when given, an index flag even at 0, --k when nonzero.
FLAG_READERS = {
    "--u-index": "tu", "--l-index": "sr", "--m-index": "sr", "--k": "sr", "--chi-index": "uset"
}


@pytest.mark.parametrize("flag", sorted(FLAG_READERS))
@pytest.mark.parametrize("method", ["classical", "tu", "sr", "uset"])
def test_construct_refuses_each_flag_its_method_does_not_read(capsys, method, flag):
    command = f"construct --d 3 --n 2 --method {method} {flag} {1 if flag == '--k' else 0}"
    if FLAG_READERS[flag] == method:
        assert command in READ_FLAG_PINS
        return
    assert run(command.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: method {method} does not read {flag}\n"


@pytest.mark.parametrize("method", [None, "classical", "tu", "sr", "uset"])
def test_mub_reads_k_only_for_sr(capsys, method):
    command = "mub --d 2 --n 2" + (f" --from-spread {method}" if method else "") + " --k 1"
    if method == "sr":
        assert command in READ_FLAG_PINS
        return
    assert run(command.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: method {method or 'classical'} does not read --k\n"


@pytest.mark.parametrize(
    "extra", [["--from-spread", m] for m in ("classical", "tu", "sr", "uset")] + [["--k", "1"]]
)
def test_mub_from_file_refuses_from_spread_and_k(tmp_path, capsys, extra):
    path = tmp_path / "spread.json"
    path.write_bytes(serialize_spread(spread.construct_symplectic_spread(get_space(2, 2))))
    assert run(["mub", "--d", "2", "--n", "2", "--from-file", str(path), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --from-file takes neither --from-spread nor --k\n"


@pytest.mark.parametrize(
    "command",
    [f"construct --d 3 --n 2 --method {m}" for m in ("classical", "tu", "sr", "uset")]
    + ["mub --d 2 --n 2", "mub --d 2 --n 2 --from-file spread.json"],
)
def test_explicit_k_0_is_the_default(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    s = spread.construct_symplectic_spread(get_space(2, 2))
    (tmp_path / "spread.json").write_bytes(serialize_spread(s, "json"))
    outs = []
    for argv in (command, command + " --k 0"):
        assert run(argv.split()) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command",
    [
        ["construct"],
        ["verify", "--check", "regularity"],
        ["search", "--mode", "exhaustive"],
        ["conjecture"],
        ["classify"],
    ],
    ids=["construct", "verify", "search", "conjecture", "classify"],
)
def test_only_mub_reads_tolerance(capsys, command):
    # The default given explicitly is accepted, as --k 0 is; any other is refused.
    argv = command[:1] + ["--d", "2", "--n", "2"] + command[1:]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert json.loads(default)["config"]["tolerance"] == 1e-9
    assert run(argv + ["--tolerance", "1e-9"]) == 0
    assert capsys.readouterr().out == default
    assert run(argv + ["--tolerance", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {command[0]} does not read --tolerance\n"


@pytest.mark.parametrize("report", ["json", "text"])
@pytest.mark.parametrize(
    "command",
    [["verify", "--check", "complete", "--in"], ["mub", "--from-file"]],
    ids=["verify-in", "mub-from-file"],
)
def test_spread_file_format_is_read_from_its_content(
    tmp_path, monkeypatch, capsys, command, report
):
    # --format names the report alone: the same spread as JSON, as JSON after
    # blank lines, and as text gives the same report in either format.
    monkeypatch.chdir(tmp_path)
    s = spread.construct_symplectic_spread(get_space(2, 2))
    argv = command[:1] + ["--d", "2", "--n", "2", "--format", report] + command[1:] + ["spread"]
    as_json = serialize_spread(s, "json")
    outs = []
    for data in (as_json, b"\n  \n" + as_json, serialize_spread(s, "text")):
        (tmp_path / "spread").write_bytes(data)
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].startswith("{") == (report == "json")


def test_search_first_of_size_needs_a_size(capsys):
    assert run(["search", "--d", "2", "--n", "2", "--mode", "first-of-size"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --size is required for first-of-size\n"


def test_python_m_cli_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "polarmub.cli", "--version"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "0.1.0"
