"""tools/outdiff.py: leaf-by-leaf diff of two checkouts' outputs."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def outdiff(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("outdiff")


def test_numeric_leaves_and_changes(outdiff):
    old = {"cases": [{"rate": 1.0, "ok": True, "note": "a"},
                     {"rate": 2.0, "ok": True, "note": None}],
           "gap": 0.0, "only_old": 1}
    new = {"cases": [{"rate": 1.0 + 1e-12, "ok": False, "note": "a"},
                     {"rate": 2.5, "ok": True, "note": "b"}],
           "gap": 0.0, "only_new": [1, 2]}
    lines = outdiff.diff_values(old, new)
    assert lines == [
        "  cases[].rate: largest relative move 0.2 in 2 of 2 cells",
        "  cases[].ok: true -> false",
        "  cases[].note: null -> \"b\"",
        "  only_new: (absent) -> [1, 2]",
        "  only_old: 1 -> (absent)",
    ]


def test_equal_values_give_no_lines(outdiff):
    nan = float("nan")
    doc = {"x": [nan, float("inf"), -0.5], "y": None}
    assert outdiff.diff_values(doc, {"x": [nan, float("inf"), -0.5],
                                     "y": None}) == []


def test_csv_cells_as_written(outdiff, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('s,x0,valid,error\n2.0,10.0,true,\n1.0,inf,false,"a, b"\n',
                    encoding="utf-8")
    assert outdiff.read(str(path)) == {
        "s": [2.0, 1.0], "x0": [10.0, float("inf")],
        "valid": [True, False], "error": [None, "a, b"]}


def test_a_checkout_against_itself_is_identical(outdiff, capsys):
    # every report embeds its out_dir, so both sides use the same relative
    # --out; reruns are byte-identical
    assert outdiff.main([ROOT, ROOT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.endswith(": identical") for line in lines)
