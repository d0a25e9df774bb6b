"""Diff the output bits of two kinlang checkouts, leaf by leaf.

    python3 tools/outdiff.py OLD_CHECKOUT NEW_CHECKOUT [--config-dir DIR]

Runs the five commands (``simulate`` with ``--seed 1``) from each
checkout's ``src/``, each checkout in its own temporary directory and with
the same relative ``--out`` per command, because every report embeds its
``out_dir``.  By default the commands run on their default configs; with
``--config-dir``, a command whose ``DIR/<command>.json`` exists runs on it.
``tools/staged`` holds a ``simulate`` config whose steps run in three
stages on two threads (a constant matrix friction, N = 131,075, d = 2, 20
steps, every one recorded), so

    python3 tools/outdiff.py OLD_CHECKOUT . --config-dir tools/staged

is the bit check for a change to how ``run`` schedules its steps.

Each file is then "identical", or its changes are listed:

  * per numeric leaf (a JSON key path with list indices written ``[]``, or
    a CSV column), the largest relative move |a - b| / max(|a|, |b|) and
    the number of cells that moved, out of the leaf's cells;
  * every flipped bool, changed string, change to or from null, and change
    of shape (a key or a row on one side only, a list of another length).

Exits 0 when both checkouts wrote the same files with the same exit codes
and every file is identical, 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

COMMANDS = ("oracle-ou", "simulate", "certify", "compare", "audit")

#: stands in for a key or a row that one side lacks
MISSING = object()


def run_commands(checkout, workdir, config_dir=None):
    """Run every command from checkout's src/ in workdir; {command: exit code}."""
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    codes = {}
    for command in COMMANDS:
        argv = [sys.executable, "-m", "kinlang.cli", command, "--out", command]
        if command == "simulate":
            argv += ["--seed", "1"]
        if config_dir is not None:
            path = os.path.abspath(os.path.join(config_dir, command + ".json"))
            if os.path.isfile(path):
                argv += ["--config", path]
        codes[command] = subprocess.run(argv, cwd=workdir, env=env,
                                        capture_output=True).returncode
    return codes


def csv_cell(text):
    """A CSV cell as the value kinlang wrote: null, a bool, a number or a
    string."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """{column: [cells]} of a CSV file with a header row; a header that
    differs between two files shows as columns on one side only."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [csv_cell(row[i]) if i < len(row) else MISSING
                   for row in rows]
            for i, name in enumerate(header)}


def read(path):
    if path.endswith(".csv"):
        return read_csv(path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def leaf_pairs(a, b, path=""):
    """(path, a, b) for every pair of aligned leaves of two parsed files."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            yield from leaf_pairs(a.get(key, MISSING), b.get(key, MISSING),
                                  sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from leaf_pairs(x, y, path + "[]")
    else:
        yield path, a, b


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_move(a, b):
    """|a - b| / max(|a|, |b|); 0 for equal values, NaN against NaN too."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def show(x):
    if x is MISSING:
        return "(absent)"
    text = json.dumps(x)
    return text if len(text) <= 60 else f"{type(x).__name__} of {len(x)}"


def diff_values(a, b):
    """The lines that describe how parsed file b differs from a."""
    moves, changes = {}, []
    for path, x, y in leaf_pairs(a, b):
        if is_number(x) and is_number(y):
            worst, moved, cells = moves.get(path, (0.0, 0, 0))
            rel = relative_move(x, y)
            moves[path] = (max(worst, rel), moved + (rel > 0), cells + 1)
        elif x != y:
            changes.append(f"  {path or '(root)'}: {show(x)} -> {show(y)}")
    lines = [f"  {path}: largest relative move {worst:.3g} in {moved} of "
             f"{cells} cells"
             for path, (worst, moved, cells) in sorted(moves.items())
             if moved]
    return lines + changes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="the checkout to compare against")
    ap.add_argument("new", help="the checkout whose outputs are diffed")
    ap.add_argument("--config-dir", metavar="DIR",
                    help="run a command on DIR/<command>.json when it exists")
    args = ap.parse_args(argv)

    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        dirs, codes = {}, {}
        for side in ("old", "new"):
            dirs[side] = os.path.join(tmp, side)
            os.mkdir(dirs[side])
            codes[side] = run_commands(getattr(args, side), dirs[side],
                                       args.config_dir)
        for command in COMMANDS:
            if codes["old"][command] != codes["new"][command]:
                differs = True
                print(f"{command}: exit code {codes['old'][command]} -> "
                      f"{codes['new'][command]}")
            listed = [set(os.listdir(os.path.join(dirs[side], command)))
                      if os.path.isdir(os.path.join(dirs[side], command))
                      else set() for side in ("old", "new")]
            for name in sorted(listed[0] | listed[1]):
                label = f"{command}/{name}"
                if name not in listed[0] or name not in listed[1]:
                    differs = True
                    side = "old" if name in listed[0] else "new"
                    print(f"{label}: written by the {side} checkout only")
                    continue
                old, new = (os.path.join(dirs[side], command, name)
                            for side in ("old", "new"))
                with open(old, "rb") as fa, open(new, "rb") as fb:
                    if fa.read() == fb.read():
                        print(f"{label}: identical")
                        continue
                differs = True
                lines = diff_values(read(old), read(new))
                print(f"{label}:")
                print("\n".join(lines or ["  bytes differ, values equal"]))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
