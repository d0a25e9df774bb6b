"""Rules on the package source, read as text."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kinlang"


def test_no_environment_knobs():
    # the library's behaviour comes from its arguments and configs alone; a
    # setting read from the environment would be an option no caller sees
    knob = re.compile(r"os\.environ|getenv")
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if knob.search(line)]
    assert hits == []


def test_no_matrix_inverse():
    # an SPD inverse is from_eig(u, 1/w) of the eigh its positivity rule
    # reads; an explicit inverse would bypass that rule
    inverse = re.compile(r"linalg\.inv\b|linalg import .*\binv\b")
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if inverse.search(line)]
    assert hits == []


def _calls(text):
    """(file name, enclosing top-level def or class) of every line in src/
    holding text."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    hits = []
    for path in paths:
        current = None
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("def ") or line.startswith("class "):
                current = line.split("(")[0].split()[1]
            if text in line:
                hits.append((path.name, current))
    return hits


def test_one_philox_construction():
    # the (seed, step, domain) key rule has one home: every keyed stream is
    # built by simulate._stream, which checks both 64-bit words
    assert _calls("np.random.Philox(") == [("simulate.py", "_stream")]


def test_one_helper_thread():
    # one threaded design: run's staged steps start the package's only
    # thread, which runs in a copy of the caller's context
    assert _calls("threading.Thread(") == [("simulate.py", "_staged")]


def test_one_step_loop():
    # one EM step loop: run drives every size through _staged, so the
    # kernel is applied by step and _staged alone, and a step's noise is
    # drawn whole only by step (ensemble_from_moments draws the init
    # stream); each list starts with the definition's own line
    assert _calls("_advance(") == [("simulate.py", "_advance"),
                                   ("simulate.py", "step"),
                                   ("simulate.py", "_staged")]
    assert _calls("philox_normals(") == [
        ("simulate.py", "philox_normals"),
        ("simulate.py", "ensemble_from_moments"),
        ("simulate.py", "step")]
