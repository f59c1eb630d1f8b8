"""Golden ``--trace`` runs: corpus queries through the command line.

Each case runs one query with ``--trace`` and compares stdout and stderr
byte for byte with ``golden/<case>.out`` and ``golden/<case>.err``, then
checks the number the session's next fresh variable gets.  The trace shows
every selected literal and matcher; the fresh-variable numbers in it, and
the next one, pin the numbering order that README "Notes on determinism"
documents.

Set ``RHOLOG_UPDATE_GOLDEN=1`` to rewrite the expected files from the
current output; the next-number checks are never rewritten.
"""

import os
from pathlib import Path

import pytest

from rholog import cli

GOLDEN = Path(__file__).parent / "golden"

STRAT = ["--consult", "examples/strat.rholog"]
PRELUDE = STRAT + ["--consult", "prelude/rewrite.rholog"]

# name: (program and query arguments, next fresh-variable number)
CASES = {
    # Positions headed h and a select no clause of strat; f(a) does.
    "rewrite_gap": (STRAT + ["--query", "rewrite(strat) :: h(a, f(a)) ==> i_X"], 5),
    # strat selects nothing for (a, a); str1, led by a sequence variable, does.
    "first_one": (STRAT + ["--query", "first_one(strat, str1) :: (a, a) ==> s_X"], 3),
    "first_all": (STRAT + ["--query", "first_all(strat, str1) :: (a, a) ==> s_X"], 3),
    # g(a) is irreducible; f(f(a)) reaches the irreducible g(f(a)) and a.
    "nf_irreducible": (STRAT + ["--query", "nf(strat) :: g(a) ==> s_X, "
                                "nf(strat) :: f(f(a)) ==> s_Y"], 5),
    # A negation (=\=>) whose positive side probes with rewrite, and a cut.
    "negation_cut": (PRELUDE + ["--query",
                                "rewrite_left_in_one(strat) :: f(f(a)) ==> i_X"], 9),
}


@pytest.fixture
def sessions(monkeypatch):
    """The sessions the command line creates, in order."""
    made = []

    class Recorded(cli.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cli, "Session", Recorded)
    return made


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_file(case, sessions, capsys):
    args, next_number = CASES[case]
    code = cli.main(args + ["--all", "--trace"])
    out, err = capsys.readouterr()
    assert code == 0
    got = {"out": out, "err": err}
    for stream, text in got.items():
        path = GOLDEN / f"{case}.{stream}"
        if os.environ.get("RHOLOG_UPDATE_GOLDEN") == "1":
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
        assert text.encode("utf-8") == path.read_bytes(), (case, stream)
    [session] = sessions
    assert session.fresh_var("i", "Next").name == f"Next#{next_number}"
