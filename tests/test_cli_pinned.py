"""Byte-level pin of the command line: stdout, stderr and exit code.

Each entry of ``MATRIX`` is one command line; ``PINNED`` holds a digest of
what it printed (or wrote to ``--out``), what it wrote to stderr, and its
exit code.  A refactor of the front end that changes no behaviour leaves
every digest as it is.  To re-record after a deliberate change, run
``PYTHONPATH=src:tests python -c "import test_cli_pinned as t; t.record()"``
and declare the changed entries.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from idealfam.cli import main

# The benchmark's two sweep command lines, with a fixed prime.
BENCH_SWEEP = "sweep --field 101 --format json --out {out} --jobs 1"
BENCH_SWEEP_VERIFY = (
    "sweep --verify --max-g 2 --max-n 2 --max-m 3 --field 101 --format json "
    "--out {out} --jobs 1"
)

MATRIX = (
    # construct: text, json, m2, --out, --field
    "construct 2:(2,1,2)",
    "construct 2:(3,1) --format json",
    "construct 2:(2,1,2) --format m2",
    "construct caviglia 3",
    "construct mccullough 2 1 3 --format json",
    "construct caviglia 2 --format m2 --field QQ",
    "construct 2:(1,1) --format json --out {out}",
    "construct 2:(1,1) --field 101",
    # verify: text and json, all three target kinds
    "verify 2:(1,1)",
    "verify 2:(2,0) --format json",
    "verify 2:(2,1) --field QQ",
    "verify caviglia 3",
    "verify caviglia 3 --format json",
    "verify mccullough 2 1 3 --format json",
    # pd: text and json
    "pd 2:(2,2,2)",
    "pd 2:(4,4,0) --format json",
    "pd 4:(2,2)",
    # betti: text, json, m2, --degree-limit, --field
    "betti 2:(1,0)",
    "betti caviglia 3 --format json",
    "betti caviglia 3 --degree-limit 6",
    "betti caviglia 2 --format m2",
    "betti 2:(1,1) --field 101 --format json",
    "betti mccullough 2 1 2 --field QQ",
    # sweep: text and json, with and without --verify
    "sweep --max-g 3 --max-n 2 --max-m 2",
    "sweep --max-g 2 --max-n 2 --max-m 1 --verify --format json",
    BENCH_SWEEP,
    BENCH_SWEEP_VERIFY,
    "sweep --max-g 3 --max-n 2 --max-m 2 --format json --jobs 2",
    "sweep --max-g 2 --max-n 1 --max-m 2 --verify --field QQ --format json",
    # exit 2: invalid input
    "construct 1:(2)",
    "construct mccullough 2 x 3",
    "construct caviglia three",
    "construct nonsense",
    "construct 2:(1,1) --field abc",
    "betti 2:(1,1) --field 4",
    "pd 2:(0,1)",
    "verify 2:(1,1) --pair-limit -1",
    "verify 2:(1,1) --degree-limit 0",
    "verify mccullough 2 1 3 --degree-limit 3",
    "verify 2:(1,1) --degree-limit 3 --format json",
    "sweep --max-g 2 --max-n 1 --jobs 0",
    # exit 3: resource limit
    "verify 2:(1,1) --pair-limit 0",
    "betti 2:(1,1) --pair-limit 0",
    "sweep --max-g 2 --max-n 2 --max-m 1 --verify --pair-limit 0 --jobs 1",
    # changed on purpose: options a command never read, and an empty box
    "pd 2:(1,1) --format m2",
    "verify 2:(1,1) --jobs 1",
    "construct 2:(1,1) --pair-limit 5",
    "sweep --max-g 1",
)

PINNED = {
    'construct 2:(2,1,2)': 'e945c3f318479226',
    'construct 2:(3,1) --format json': 'eb61b405ed47f186',
    'construct 2:(2,1,2) --format m2': '43f2691beac7ebe0',
    'construct caviglia 3': 'f67ea5d5c3bc97e0',
    'construct mccullough 2 1 3 --format json': 'dd9a70dcfb4d781b',
    'construct caviglia 2 --format m2 --field QQ': '0af3b564cdca1d40',
    'construct 2:(1,1) --format json --out {out}': 'b4d96786ba61adb2',
    'construct 2:(1,1) --field 101': '2be0192c854452c1',
    'verify 2:(1,1)': '353579d150311bf6',
    'verify 2:(2,0) --format json': '9b0013ca77e1202c',
    'verify 2:(2,1) --field QQ': '325f3326656d2443',
    'verify caviglia 3': '1b04137c81ecae28',
    'verify caviglia 3 --format json': '72a95dd0ac38a4ce',
    'verify mccullough 2 1 3 --format json': '331bcf78a458168e',
    'verify mccullough 2 1 3 --degree-limit 3': '7ea0f7391bf8ecde',
    'verify 2:(1,1) --degree-limit 3 --format json': '4c690cc84daa1b43',
    'pd 2:(2,2,2)': '2568066025e12196',
    'pd 2:(4,4,0) --format json': 'e87091ca88b00a6b',
    'pd 4:(2,2)': '31efb1c8df856cda',
    'betti 2:(1,0)': '48e966f2dd4d8dda',
    'betti caviglia 3 --format json': 'f29945179f9dc33f',
    'betti caviglia 3 --degree-limit 6': 'ad69663c71728591',
    'betti caviglia 2 --format m2': '4a25b87639f4bbf2',
    'betti 2:(1,1) --field 101 --format json': 'b07094bb3c4b16be',
    'betti mccullough 2 1 2 --field QQ': '48e966f2dd4d8dda',
    'sweep --max-g 3 --max-n 2 --max-m 2': '24a0b39d93b51ce7',
    'sweep --max-g 2 --max-n 2 --max-m 1 --verify --format json': '273ce474f561d4ad',
    'sweep --field 101 --format json --out {out} --jobs 1': '0b1a47701cfbebd8',
    'sweep --verify --max-g 2 --max-n 2 --max-m 3 --field 101 --format json --out {out} --jobs 1': '404b60bfe6b1d6d7',
    'sweep --max-g 3 --max-n 2 --max-m 2 --format json --jobs 2': '9693873ef508d80d',
    'sweep --max-g 2 --max-n 1 --max-m 2 --verify --field QQ --format json': '266e63c32f2d158b',
    'construct 1:(2)': '0b22225175469476',
    'construct mccullough 2 x 3': 'a145b6d0aae2c7a2',
    'construct caviglia three': '3c8bb1ea758de0ed',
    'construct nonsense': '2928561eff414768',
    'construct 2:(1,1) --field abc': '87c7818d9a6bc10a',
    'betti 2:(1,1) --field 4': 'd671edecdd990d5c',
    'pd 2:(0,1)': 'a81b64245956386a',
    'verify 2:(1,1) --pair-limit -1': '5063dd1f14056550',
    'verify 2:(1,1) --degree-limit 0': 'aff30e11294493f5',
    'sweep --max-g 2 --max-n 1 --jobs 0': '4f610fd21f37ef5c',
    'verify 2:(1,1) --pair-limit 0': '9c6dfc1e921fc98d',
    'betti 2:(1,1) --pair-limit 0': '9c6dfc1e921fc98d',
    'sweep --max-g 2 --max-n 2 --max-m 1 --verify --pair-limit 0 --jobs 1': '9c6dfc1e921fc98d',
    # Exit 2 now; before, the first three ignored the option and the last
    # printed "0 instances; all consistent: True" with exit 0.
    'pd 2:(1,1) --format m2': 'd403289a10f4b300',
    'verify 2:(1,1) --jobs 1': '85201a36e806e3de',
    'construct 2:(1,1) --pair-limit 5': 'b1cf776c84585d4c',
    'sweep --max-g 1': '5f3ce13d557b1bfb',
}


def observe(line, tmp_dir):
    """Run one command line; return (exit code, output, stderr).

    A ``{out}`` placeholder becomes a file under ``tmp_dir`` whose contents
    stand in for stdout.
    """
    out_path = os.path.join(tmp_dir, "out.txt")
    argv = [part.replace("{out}", out_path) for part in line.split()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    printed = stdout.getvalue()
    if "{out}" in line:
        with open(out_path) as fh:
            printed += fh.read()
        os.remove(out_path)
    return code, printed, stderr.getvalue()


def digest(code, printed, err):
    blob = json.dumps([code, printed, err]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def record():
    """Print a fresh ``PINNED`` table for every line of ``MATRIX``."""
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp_dir:
        print("PINNED = {")
        for line in MATRIX:
            print(f"    {line!r}: {digest(*observe(line, tmp_dir))!r},")
        print("}")


@pytest.mark.parametrize("line", MATRIX)
def test_cli_output_pinned(line, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text
    assert digest(*observe(line, str(tmp_path))) == PINNED[line]
