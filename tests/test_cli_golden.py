"""Golden CLI corpus: exit code and stdout, byte for byte.

``data/cli_golden.json`` lists one record per command: ``argv`` (with
``{data}`` standing for this test's data directory), the expected ``exit``
code and the expected ``stdout``; a refusal over the budget (exit 3) must
also say ``budget: `` on stderr.  The inputs are files beside the corpus.
Re-record it only from a tree whose output is known to be right:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import os

import pytest

from seqnorms import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CORPUS = os.path.join(DATA, "cli_golden.json")

with open(CORPUS) as fh:
    RECORDS = json.load(fh)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("{data}", DATA) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_golden(record):
    code, out, err = run(record["argv"])
    assert (code, out) == (record["exit"], record["stdout"])
    assert "Traceback" not in err
    if code == cli.EXIT_BUDGET:
        assert err.startswith("budget: "), err


if __name__ == "__main__":
    for record in RECORDS:
        record["exit"], record["stdout"], _ = run(record["argv"])
    with open(CORPUS, "w") as fh:
        json.dump(RECORDS, fh, indent=1)
        fh.write("\n")
