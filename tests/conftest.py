"""Shared pytest plumbing.

The acceptance tests register one PASS/FAIL line each; emitting them from
the terminal-summary hook keeps them visible under output capture.

A seeded sweep is marked ``@pytest.mark.sweep(tier1, full)`` and reads its
case count from the ``sweep_cases`` fixture: ``full`` in a run whose ``-m``
expression names ``sweep`` (``pytest -m sweep tests`` runs the sweeps alone,
at full size), ``tier1`` in any other run.
"""
import contextlib
import io
import os
import subprocess
import sys

import pytest

from seqnorms import cli, tsirelson

ACCEPTANCE_LINES = []

# The directory that holds the seqnorms under test: src/ of the checkout, or
# site-packages for an installed package.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "sweep(tier1, full): a seeded sweep of tier1 cases, or full under -m sweep"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fresh_python(code, *argv):
    """Run ``python -c code *argv`` in a fresh interpreter that imports the
    seqnorms under test; the finished process, with its output as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.fixture
def sweep_cases(request):
    """The case count of the test's ``sweep`` marker for this run."""
    tier1, full = request.node.get_closest_marker("sweep").args
    return full if "sweep" in request.config.getoption("markexpr") else tier1


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
