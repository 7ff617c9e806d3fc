"""``repro-lid`` builds only the subcommand that runs; these tests hold
that parser to the bytes of the full one.

``main`` reads the command from argv (``_requested_command``) and builds
the top-level parser with that subcommand alone.  Every case below runs
twice: as ``main`` runs it, and with the classifier patched to answer
``None``, which makes ``main`` build every subcommand.  Stdout, stderr
and exit code must agree.  ``COLUMNS`` is fixed so that help wraps the
same way on any terminal.
"""

import argparse

import pytest

from repro import cli

#: Per subcommand: a missing required argument (or a flag missing its
#: value, where nothing is required), an unknown flag and an invalid
#: choice or value.  ``--help`` is added for each.
ERRORS = {
    "analyze": (["analyze"], ["analyze", "figure1", "--bogus"],
                ["analyze", "figure1", "--variant", "nope"]),
    "verify": (["verify", "--seed"], ["verify", "--bogus"],
               ["verify", "--seed", "x"]),
    "reproduce": (["reproduce", "--output"], ["reproduce", "--bogus"],
                  ["reproduce", "--experiment", "NOPE"]),
    "figure1": (["figure1", "--seed"], ["figure1", "--bogus"],
                ["figure1", "--seed", "x"]),
    "figure2": (["figure2", "--seed"], ["figure2", "--bogus"],
                ["figure2", "--seed", "x"]),
    "deadlock": (["deadlock"], ["deadlock", "figure2", "--bogus"],
                 ["deadlock", "figure2", "--max-cycles", "x"]),
    "inject": (["inject", "--topology"], ["inject", "--bogus"],
               ["inject", "--engine", "nope"]),
    "liveness": (["liveness"], ["liveness", "figure1", "--bogus"],
                 ["liveness", "figure1", "--max-states", "x"]),
    "trace": (["trace"], ["trace", "figure1", "--bogus"],
              ["trace", "figure1", "--format", "nope"]),
    "profile": (["profile"], ["profile", "figure1", "--bogus"],
                ["profile", "figure1", "--cycles", "x"]),
    "stats": (["stats"], ["stats", "figure1", "--bogus"],
              ["stats", "figure1", "--variant", "nope"]),
    "series": (["series"], ["series", "backpressure", "--bogus"],
               ["series", "nope"]),
    "serve": (["serve", "--port"], ["serve", "--bogus"],
              ["serve", "--mode", "nope"]),
    "client": (["client", "--manifest"], ["client", "--bogus"],
               ["client", "--concurrency", "0"]),
    "obs": (["obs"], ["obs", "--bogus"], ["obs", "nope"]),
    "export": (["export"], ["export", "dot", "--bogus"],
               ["export", "nope"]),
    "obs ls": (["obs", "--ledger"], ["obs", "ls", "--bogus"],
               ["obs", "ls", "extra"]),
    "obs show": (["obs", "show"], ["obs", "show", "@0", "--bogus"],
                 ["obs", "show", "@0", "@1"]),
    "obs diff": (["obs", "diff", "a"], ["obs", "diff", "a", "b", "--bogus"],
                 ["obs", "diff", "a", "b", "c"]),
    "obs regress": (["obs", "regress", "--bench"],
                    ["obs", "regress", "--bogus"],
                    ["obs", "regress", "--baseline", "nope"]),
}

CASES = [pytest.param(name.split() + ["--help"], 0, id=f"{name} --help")
         for name in ERRORS]
CASES += [pytest.param(argv, 2, id=" ".join(argv))
          for cases in ERRORS.values() for argv in cases]

#: Top-level arguments; the first four never name a known command.
TOP_LEVEL = [
    ([], 2),
    (["--help"], 0),
    (["--version"], 0),
    (["nope"], 2),
    (["--seed", "x", "analyze", "figure1"], 2),
    (["--seed=3", "analyze", "figure1"], 0),
]


@pytest.fixture(autouse=True)
def _fixed_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _run(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _one_and_full(argv, capsys, monkeypatch):
    one = _run(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_requested_command", lambda argv: None)
        full = _run(argv, capsys)
    return one, full


def test_every_subcommand_has_cases():
    assert {name.split()[0] for name in ERRORS} == set(cli._COMMANDS)
    assert set(ERRORS) >= {f"obs {name}"
                           for name in ("ls", "show", "diff", "regress")}


@pytest.mark.parametrize("argv,code", CASES)
def test_subcommand_parser_matches_full_parser(argv, code, capsys,
                                               monkeypatch):
    one, full = _one_and_full(argv, capsys, monkeypatch)
    assert one == full
    assert one[0] == code


@pytest.mark.parametrize("argv,code", TOP_LEVEL,
                         ids=[" ".join(a) or "(none)" for a, _ in TOP_LEVEL])
def test_top_level_matches_full_parser(argv, code, capsys, monkeypatch):
    one, full = _one_and_full(argv, capsys, monkeypatch)
    assert one == full
    assert one[0] == code


def test_top_level_error_lists_every_command(capsys):
    code, _out, err = _run(["--seed", "x", "analyze", "figure1"], capsys)
    assert code == 2
    assert "{" + ",".join(cli._COMMANDS) + "}" in err
    assert err.endswith(
        "repro-lid: error: argument --seed: invalid int value: 'x'\n")


def test_unknown_flag_after_a_command_shows_the_full_usage(capsys):
    """argparse reports a subcommand's leftover arguments from the top
    level, so the one-command parser hands its error to the full one."""
    code, _out, err = _run(["analyze", "figure1", "--bogus"], capsys)
    assert code == 2
    assert "{" + ",".join(cli._COMMANDS) + "}" in err
    assert err.endswith(
        "repro-lid: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv,expected", [
    (["analyze", "figure1"], "analyze"),
    (["--seed", "3", "obs", "ls"], "obs"),
    (["--seed", "-3", "liveness", "figure1"], "liveness"),
    (["--seed=3", "--seed", "4", "stats", "figure1"], "stats"),
    (["--seed", "x", "analyze"], "analyze"),
    (["--seed"], None),
    (["--seed", "3"], None),
    (["-h", "analyze"], None),
    (["--version"], None),
    (["--se", "3", "analyze"], None),
    (["nope"], None),
    ([], None),
])
def test_requested_command(argv, expected):
    assert cli._requested_command(argv) == expected


def test_a_run_builds_one_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert cli.main(["export", "relay-vhdl", "--width", "2"]) == 0
    assert built == ["export"]
    assert "entity relay_station is" in capsys.readouterr().out
