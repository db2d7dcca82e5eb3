"""Golden corpus: every case in tests/golden/ runs through minfol.cli.run
and must reproduce its recorded exit code, stdout and stderr byte for
byte.

A case is one JSON file: {"argv", "env", "exit", "stdout", "stderr"}.
`env` may set MINFOL_SEED, MINFOL_THREADS and COLUMNS; those it leaves
out are unset for the run.  To add a case, write a file with "argv" and
"env" only and fill in the rest with

    PYTHONPATH=src python tests/test_golden.py NAME...

(no names: every case).  Recorded output changes only to fix a defect,
and CHANGES.md says which.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

from minfol.cli import COMMANDS, run

GOLDEN = pathlib.Path(__file__).parent / "golden"
ENV_KEYS = ("MINFOL_SEED", "MINFOL_THREADS", "COLUMNS")
ROOT = pathlib.Path(__file__).parent.parent


def load(name):
    return json.loads((GOLDEN / (name + ".json")).read_text())


def case_names():
    return sorted(p.stem for p in GOLDEN.glob("*.json"))


@contextmanager
def case_environ(env):
    saved = {k: os.environ.pop(k, None) for k in ENV_KEYS}
    os.environ.update(env)
    try:
        yield
    finally:
        for k in ENV_KEYS:
            os.environ.pop(k, None)
            if saved[k] is not None:
                os.environ[k] = saved[k]


def replay(case):
    """(exit code, stdout, stderr) of the case, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with case_environ(case["env"]), redirect_stdout(out), \
            redirect_stderr(err):
        try:
            code = run(list(case["argv"]))
        except SystemExit as exc:   # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", case_names())
def test_golden_case(name):
    case = load(name)
    code, out, err = replay(case)
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def first_passing_case(path):
    """The first recorded case that runs the command `path` and exits 0,
    or None."""
    n = len(path.split())
    for name in case_names():
        case = load(name)
        words = [a for a in case["argv"] if a != "--tsv"]
        if case["exit"] == 0 and " ".join(words[:n]) == path:
            return case
    return None


def test_every_command_has_a_passing_case():
    missing = [row[0] for row in COMMANDS
               if first_passing_case(row[0]) is None]
    assert not missing


def replay_process(case):
    """(exit code, stdout, stderr) of the case, run as a fresh
    `python -m minfol.cli` process."""
    env = {k: v for k, v in os.environ.items() if k not in ENV_KEYS}
    env.update(case["env"])
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "minfol.cli"]
                          + case["argv"], env=env, capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", ["readme_classify_periodic",
                                  "tsv_homology_basis_wollmilchsau"])
def test_entry_point_process_matches_golden(name):
    case = load(name)
    assert replay_process(case) == \
        (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("path", [row[0] for row in COMMANDS])
def test_each_command_matches_golden_in_a_fresh_process(path):
    # in-process replay runs after other tests have imported every
    # layer; a fresh process shows that each handler imports its own
    case = first_passing_case(path)
    assert replay_process(case) == \
        (case["exit"], case["stdout"], case["stderr"])


def capture(names):
    for name in names or case_names():
        case = load(name)
        case["exit"], case["stdout"], case["stderr"] = replay(case)
        (GOLDEN / (name + ".json")).write_text(json.dumps(case, indent=1)
                                               + "\n")


if __name__ == "__main__":
    capture(sys.argv[1:])
