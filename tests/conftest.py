"""Shared pytest plumbing.

The acceptance tests register one PASS/FAIL line each; emitting them from
the terminal-summary hook keeps them visible under output capture.
"""
import contextlib
import io

import pytest

from seqnorms import cli, tsirelson

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def refused(tmp_path):
    """Check one validation branch: ``call(tmp)`` raises ``error`` (with a
    message matching ``match``, if given) and, when ``argv`` is given, the
    CLI exits 2 on it.

    ``files`` maps names to texts written to the temporary directory ``tmp``
    first; ``{tmp}`` in ``argv`` stands for that directory.
    """
    def check(call, error, argv=None, files=None, match=None):
        for name, text in (files or {}).items():
            (tmp_path / name).write_text(text)
        tmp = str(tmp_path)
        with pytest.raises(error, match=match):
            call(tmp)
        if argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([a.format(tmp=tmp) for a in argv])
            assert (code, out.getvalue()) == (2, "") and "Traceback" not in err.getvalue()

    return check


@pytest.fixture
def fills(monkeypatch):
    """A count of the Tsirelson fixed-point tables the test fills."""
    count = [0]
    fill = tsirelson.TsirelsonEngine.fixed_point_table

    def counted(engine, **kwargs):
        count[0] += engine._fixed is None  # the table is memoized per engine
        return fill(engine, **kwargs)

    monkeypatch.setattr(tsirelson.TsirelsonEngine, "fixed_point_table", counted)
    return count
