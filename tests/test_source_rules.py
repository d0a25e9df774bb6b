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
