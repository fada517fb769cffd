import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from idealfam import FamilyParams, IdealPresentation, buchberger, build_ideal
from idealfam import cli
from idealfam.cli import main
from idealfam.groebner import DEFAULT_PAIR_LIMIT

from conftest import fresh_interpreter


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_text(capsys):
    code, out, _ = run(capsys, "construct", "2:(2,2,2)")
    assert code == 0
    assert "x[1,1]^7" in out
    assert "pd formula: 9" in out
    assert "y[[1,1,2],[1,1,0]]" in out


def test_construct_round_trip(capsys):
    code, out, _ = run(capsys, "construct", "2:(2,1,2)")
    assert code == 0
    lines = [l.strip() for l in out.splitlines()]
    gens = lines[lines.index("generators:") + 1 :]
    ideal = build_ideal(FamilyParams.parse("2:(2,1,2)"))
    parsed = IdealPresentation(ideal.ring, [ideal.ring.parse(g) for g in gens])
    assert buchberger(parsed).elements == buchberger(ideal).elements


def test_construct_json_schema(capsys):
    code, out, _ = run(capsys, "construct", "2:(3,1)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"params", "constants", "generators", "report"}
    assert payload["params"] == "2:(3,1)"
    assert payload["constants"]["pd_formula"] == 8
    assert payload["constants"]["A_sizes"] == [1, 2, 4]
    assert len(payload["generators"]) == 3


def test_construct_m2_export(capsys):
    code, out, _ = run(capsys, "construct", "2:(2,1,2)", "--format", "m2")
    assert code == 0
    assert "R = ZZ/32003[v_0..v_5];" in out
    assert "I = ideal(" in out
    assert "v_0^6" in out
    assert "--   v_0 = x[1,1]" in out


def test_construct_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "construct", "1:(2)")
    assert code == 2
    assert "g must be" in err
    code, _, err = run(capsys, "construct", "mccullough", "2", "x", "3")
    assert code == 2
    assert "expected integers" in err
    code, _, err = run(capsys, "construct", "caviglia", "three")
    assert code == 2


def test_verify_small_family(capsys):
    code, out, _ = run(capsys, "verify", "2:(1,1)")
    assert code == 0
    assert "depth-zero verified: True; implied pd = 4" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2:(2,0)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["socle"]["conclusion"] is True
    assert payload["report"]["lemma"]["ok"] is True


def test_verify_mccullough(capsys):
    code, out, _ = run(capsys, "verify", "mccullough", "2", "1", "3")
    assert code == 0
    assert "implied pd = 5" in out


def test_verify_caviglia(capsys):
    code, out, _ = run(capsys, "verify", "caviglia", "3")
    assert code == 0
    assert "implied pd = 4" in out


def test_pd_values_and_presets(capsys):
    code, out, _ = run(capsys, "pd", "2:(2,2,2)")
    assert code == 0
    assert "pd formula: 9" in out

    code, out, _ = run(capsys, "pd", "2:(4,4,0)")
    assert code == 0
    assert "pd formula: 15" in out
    assert "p=3" in out and "9 = p^(p-1)" in out

    code, out, _ = run(capsys, "pd", "4:(2,2)")
    assert code == 0
    assert "pd formula: 68" in out
    assert "16 = p^(2p)" in out


def test_betti_small(capsys):
    code, out, _ = run(capsys, "betti", "2:(1,0)")
    assert code == 0
    assert "pd = 4" in out
    assert "total:" in out


def test_betti_caviglia_json(capsys):
    code, out, _ = run(capsys, "betti", "caviglia", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["reg"] == 7
    assert payload["report"]["pd"] == 4
    triples = {tuple(t[:2]): t[2] for t in payload["report"]["betti"]}
    assert triples[(0, 0)] == 1


def test_betti_family_json_golden_totals(capsys):
    code, out, _ = run(capsys, "betti", "2:(2,1,2)", "--format", "json")
    assert code == 0
    report = json.loads(out)["report"]
    totals = {}
    for i, _, b in report["betti"]:
        totals[i] = totals.get(i, 0) + b
    assert [totals[i] for i in sorted(totals)] == [1, 3, 75, 247, 320, 188, 42]
    assert report["pd"] == 6 and report["truncated_at"] is None


def test_betti_degree_limit_banner(capsys):
    code, out, _ = run(capsys, "betti", "caviglia", "3", "--degree-limit", "6")
    assert code == 0
    assert "truncated" in out


def test_betti_m2_export(capsys):
    code, out, _ = run(capsys, "betti", "caviglia", "2", "--format", "m2")
    assert code == 0
    assert "betti res I" in out


def test_resource_limit_exit_3(capsys):
    code, _, err = run(capsys, "verify", "2:(1,1)", "--pair-limit", "0")
    assert code == 3
    assert "resource limit" in err


def test_negative_pair_limit_exit_2(capsys):
    code, _, err = run(capsys, "verify", "2:(1,1)", "--pair-limit", "-1")
    assert code == 2
    assert "--pair-limit" in err


def test_jobs_below_one_exit_2(monkeypatch, capsys):
    # cmd_sweep imports the pool class only for --jobs > 1.
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, _, err = run(capsys, "sweep", "--max-g", "2", "--max-n", "1", "--jobs", "0")
    assert code == 2
    assert "--jobs" in err


def test_betti_pair_limit_exit_3(capsys):
    code, _, err = run(capsys, "betti", "2:(1,1)", "--pair-limit", "0")
    assert code == 3
    assert "resource limit" in err


def test_sweep_verify_pair_limit_exit_3(capsys):
    code, _, err = run(
        capsys,
        "sweep", "--max-g", "2", "--max-n", "2", "--max-m", "1", "--verify",
        "--pair-limit", "0", "--jobs", "1",
    )
    assert code == 3
    assert "resource limit" in err


def test_unknown_target_exit_2(capsys):
    code, _, err = run(capsys, "construct", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("construct", "mccullough", "2", "1"), "usage: mccullough M N D"),
        (("construct", "caviglia"), "usage: caviglia D"),
        (("construct", "caviglia", "3", "4"), "usage: caviglia D"),
        (("construct", "2:(2,1)", "3"), "unrecognized target '2:(2,1) 3'"),
        (("pd", "2:(2,1)", "2:(3,1)"), "pd expects family parameters"),
    ],
)
def test_target_word_count_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "--max-g", "3", "--max-n", "2", "--max-m", "2")
    assert code == 0
    assert "all consistent: True" in out


@pytest.mark.parametrize("verify, field", [(False, None), (True, "101"), (True, "QQ")])
def test_sweep_json_matches_the_indenting_encoder(verify, field):
    # cmd_sweep writes its rows through one C-encoder call; the text must
    # be json.dumps(indent=2)'s, with ok true or false and with or without
    # the socle and lemma keys.
    field = None if field is None else cli._parse_field(field)
    instances = [(g, m, verify, field, DEFAULT_PAIR_LIMIT) for g in (2, 3) for m in ((1,), (2, 1))]
    rows = [cli._sweep_instance(item) for item in instances]
    for some in (rows, rows[:1]):
        for ok in (True, False):
            assert cli._sweep_json(some, ok) == json.dumps({"rows": some, "ok": ok}, indent=2)
    odd = [dict(rows[0], params="a \"quoted\"\nname }, {", agree=False)]
    assert cli._sweep_json(odd, False) == json.dumps({"rows": odd, "ok": False}, indent=2)


def test_sweep_verify_parallel(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--max-g", "2", "--max-n", "2", "--max-m", "1", "--verify",
        "--jobs", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(row["socle"] and row["lemma"] for row in payload["rows"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "ideal.json"
    code, out, _ = run(
        capsys, "construct", "2:(1,1)", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["params"] == "2:(1,1)"


def test_verification_failure_exit_1(monkeypatch, capsys):
    import idealfam.cli as cli

    real = cli._family_reports

    def failing_socle(params, ideal, **limits):
        from idealfam.family import SocleReport, socle_witness

        socle = SocleReport(
            params=params,
            witness=socle_witness(params),
            not_in_ideal=False,
            killed_by=(("x[1,1]", False),),
            conclusion=False,
            implied_pd=4,
        )
        return socle, real(params, ideal, **limits)[1]

    monkeypatch.setattr(cli, "_family_reports", failing_socle)
    code, out, _ = run(capsys, "verify", "2:(1,1)")
    assert code == 1
    assert "depth-zero verified: False" in out


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose reader is gone before the output is written:
    # no traceback, and an exit code of its own.
    import idealfam.cli as cli

    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "idealfam", "betti", "2:(1,1)"],
            stdout=write, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert done.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_3_quietly():
    # A device that is always full: a resource limit, with no traceback.
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "idealfam", "pd", "2:(1,1)"],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
    assert done.returncode == cli.EXIT_RESOURCE_LIMIT == 3
    assert done.stderr == (
        f"resource limit: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    )


def test_sweep_verify_uses_the_requested_field(monkeypatch, capsys):
    import idealfam.cli as cli
    from idealfam import QQ

    # The sweep hands its field to the certificate, which builds the ideal
    # over it only for a fallback (tests/test_family.py).
    seen = []
    real = cli._family_reports

    def spy(params, ideal=None, **options):
        seen.append(options["field"])
        return real(params, ideal, **options)

    monkeypatch.setattr(cli, "_family_reports", spy)
    code, _, _ = run(
        capsys, "sweep", "--max-g", "2", "--max-n", "1", "--max-m", "1",
        "--verify", "--field", "QQ",
    )
    assert code == 0
    assert seen and all(field == QQ for field in seen)


def test_internal_error_exit_4(monkeypatch, capsys):
    import idealfam.resolution as resolution

    retained = resolution._retained_pairs

    def corrupting(basis, lvl, pk):
        # Level 1 of the tower gets one doubled tail coefficient: its
        # records are no longer a Groebner basis.  (In the basis of
        # caviglia 2, binomials and monomials, that would only rescale z.)
        if lvl.components == 1:
            b = next(b for b in basis if b.tail)
            (t, c), *rest = b.tail
            b.tail = ((t, c * 2 % 32003), *rest)
        return retained(basis, lvl, pk)

    # An S-vector that does not reduce to zero is a bug, not bad input.
    monkeypatch.setattr(resolution, "_retained_pairs", corrupting)
    code, _, err = run(capsys, "betti", "2:(2,1)")
    assert code == 4
    assert "internal error" in err


def test_package_error_in_a_run_exit_4(monkeypatch, capsys):
    import idealfam.cli as cli
    from idealfam import DomainMismatchError

    def mismatch(params):
        raise DomainMismatchError("operands live in different rings")

    # Only bad input exits 2; any other package error is a bug.
    monkeypatch.setattr(cli, "pd_formula", mismatch)
    code, _, err = run(capsys, "pd", "2:(1,1)")
    assert code == 4
    assert "internal error" in err


# Options that a command never read, which each command used to accept.
UNREAD_OPTIONS = [
    ("construct", "2:(1,1)", "--jobs", "1"),
    ("construct", "2:(1,1)", "--degree-limit", "5"),
    ("construct", "2:(1,1)", "--pair-limit", "5"),
    ("verify", "2:(1,1)", "--jobs", "1"),
    ("pd", "2:(1,1)", "--jobs", "1"),
    ("pd", "2:(1,1)", "--degree-limit", "5"),
    ("pd", "2:(1,1)", "--field", "101"),
    ("pd", "2:(1,1)", "--pair-limit", "5"),
    ("betti", "2:(1,1)", "--jobs", "1"),
    ("sweep", "--max-g", "2", "--degree-limit", "5"),
    ("pd", "2:(1,1)", "--format", "m2"),
    ("verify", "2:(1,1)", "--format", "m2"),
    ("sweep", "--max-g", "2", "--format", "m2"),
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_unread_option_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "error:" in err


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "pd", "2:(1,1)", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: cannot write --out")
    assert not target.parent.exists()


# Text output of a few hundred bytes and of a few kilobytes.
SHORT = ("pd", "2:(1,1)")
LONG = ("sweep", "--max-g", "3", "--max-n", "2", "--max-m", "2")


def _write_out(capsys, path, argv):
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    return Path(path).read_bytes()


@pytest.mark.parametrize(
    "first, second",
    [(LONG, SHORT), (SHORT, LONG), (LONG, LONG)],
    ids=["shorter-over-longer", "longer-over-shorter", "same-twice"],
)
def test_out_rewrites_the_file_in_place(first, second, tmp_path, capsys):
    # Whatever the file held before, it ends with the bytes a fresh write gives.
    fresh = _write_out(capsys, tmp_path / "fresh.txt", second)
    target = tmp_path / "out.txt"
    old = _write_out(capsys, target, first)
    assert _write_out(capsys, target, second) == fresh
    if first == LONG and second == SHORT:
        assert len(old) > len(fresh)


def test_out_is_never_truncated_to_zero(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("stale\n" * 1000)
    inode = target.stat().st_ino
    flags = []
    real_open = os.open

    def spy(path, flag, *rest, **options):
        flags.append(flag)
        return real_open(path, flag, *rest, **options)

    monkeypatch.setattr(os, "open", spy)
    cli._emit("new", SimpleNamespace(out=str(target)))
    reason = (
        "--out must be rewritten in place: on ext4 mounted with discard, "
        "open(path, 'w') spent 60-90 ms in O_TRUNC (about 0.01 ms in place), "
        "and replacing the file frees the old blocks just the same"
    )
    assert flags and not any(flag & os.O_TRUNC for flag in flags), reason
    assert target.stat().st_ino == inode, reason
    assert target.read_text() == "new\n"


def test_out_to_a_device_or_a_directory(tmp_path, capsys):
    code, out, err = run(capsys, *SHORT, "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, *SHORT, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"invalid input: cannot write --out {tmp_path}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_out_device_is_a_resource_limit(capsys):
    code, out, err = run(capsys, *SHORT, "--out", "/dev/full")
    assert code == 3
    assert out == ""
    assert err == (
        f"resource limit: cannot write --out /dev/full: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize(
    "name, code",
    [("ENOSPC", 3), ("EDQUOT", 3), ("EFBIG", 3), ("EACCES", 2), ("EISDIR", 2), ("ENOENT", 2)],
)
def test_out_errors_are_classified(name, code, monkeypatch, capsys):
    number = getattr(errno, name)

    def refuse(*args, **options):
        raise OSError(number, os.strerror(number))

    monkeypatch.setattr(os, "open", refuse)
    assert run(capsys, *SHORT, "--out", "ignored")[0] == code


def test_new_out_file_has_the_mode_open_gives(tmp_path, capsys):
    old_mask = os.umask(0o027)
    try:
        _write_out(capsys, tmp_path / "new.txt", SHORT)
        with open(tmp_path / "reference.txt", "w"):
            pass
    finally:
        os.umask(old_mask)
    mode = (tmp_path / "new.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~0o027 == (tmp_path / "reference.txt").stat().st_mode & 0o777


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("stale\n" * 1000)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    fresh = _write_out(capsys, tmp_path / "fresh.txt", SHORT)
    _write_out(capsys, link, SHORT)
    assert link.is_symlink()
    assert real.read_bytes() == fresh


def test_failed_out_write_leaves_an_empty_file(tmp_path, monkeypatch, capsys):
    # Half the output reaches the file, then the disk is full: no old tail,
    # no half output.
    target = tmp_path / "out.txt"
    target.write_text("stale\n" * 1000)
    real_open = open
    sizes = []

    class HalfThenFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            sizes.append(target.stat().st_size)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(
        cli, "open", lambda *args, **options: HalfThenFull(real_open(*args, **options)),
        raising=False,
    )
    code, out, err = run(capsys, *SHORT, "--out", str(target))
    assert code == 3
    assert err.startswith(f"resource limit: cannot write --out {target}: ")
    assert sizes == [6000]  # in place: the old bytes were still there
    assert target.read_bytes() == b""


@pytest.mark.parametrize(
    "flags, option",
    [(("--max-g", "1"), "--max-g"), (("--max-n", "0"), "--max-n"), (("--max-m", "-1"), "--max-m")],
)
def test_empty_sweep_box_exit_2(flags, option, monkeypatch, capsys):
    import idealfam.cli as cli

    def no_instance(args):
        raise AssertionError("an instance was run")

    monkeypatch.setattr(cli, "_sweep_instance", no_instance)
    code, out, err = run(capsys, "sweep", *flags)
    assert code == 2
    assert out == ""
    assert option in err


_IMPORT_SURFACE = """
import sys
before = set(sys.modules)
import idealfam, idealfam.cli
new = sorted(set(sys.modules) - before)
print(repr([m for m in new if m.split('.')[0] not in sys.stdlib_module_names | {'idealfam'}]))
print(repr([m for m in new if m.startswith('concurrent')]))
"""


def test_import_surface_is_the_standard_library():
    # A fresh interpreter: the package and its command line load only
    # standard-library modules, and `sweep`'s process pool stays unloaded
    # until `--jobs` asks for one.
    out = fresh_interpreter("-c", _IMPORT_SURFACE).stdout.splitlines()
    assert out == ["[]", "[]"]


_COMMAND_SURFACE = """
import contextlib, io, sys
import idealfam, idealfam.cli
print('import', 'idealfam.resolution' in sys.modules)
for argv in (
    ['pd', '2:(1,1)'],
    ['construct', '2:(1,1)'],
    ['verify', '2:(2,1)'],
    ['sweep', '--max-g', '2', '--max-n', '2', '--max-m', '2', '--verify'],
    ['betti', '2:(1,1)'],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = idealfam.cli.main(argv)
    print(argv[0], code, 'idealfam.resolution' in sys.modules)
"""


def test_only_betti_loads_the_resolution_layer():
    # The commands run in this order in one fresh interpreter, so each line
    # says whether that command, or any before it, loaded the layer.
    out = fresh_interpreter("-c", _COMMAND_SURFACE).stdout.splitlines()
    assert out == [
        "import False",
        "pd 0 False",
        "construct 0 False",
        "verify 0 False",
        "sweep 0 False",
        "betti 0 True",
    ]


def test_module_entry_point_pd_leaves_the_resolution_layer_unloaded():
    err = fresh_interpreter("-X", "importtime", "-m", "idealfam", "pd", "2:(1,1)").stderr
    loaded = {
        line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")
    }
    assert "idealfam.cli" in loaded
    assert "idealfam.resolution" not in loaded
