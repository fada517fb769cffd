"""Command-line front end: construct, verify, pd, betti, sweep.

Each command takes only the options it reads; any other exits 2:

    construct TARGET  --field --format {text,json,m2} --out
    verify TARGET     --field --degree-limit --pair-limit --format {text,json} --out
    pd PARAMS         --format {text,json} --out
    betti TARGET      --field --degree-limit --pair-limit --format {text,json,m2} --out
    sweep             --field --jobs --pair-limit --max-g --max-n --max-m --verify
                      --format {text,json} --out

TARGET is family parameters such as ``2:(2,1,2)``, ``caviglia D`` or
``mccullough M N D``; PARAMS is family parameters only.

Exit codes: 0 success/verified, 1 verification failed, 2 invalid input,
3 resource limit exceeded (no room left for the output counts as one),
4 internal error (a bug in idealfam, not in the input), 141 the reader of
stdout closed it before the output was written (128 + SIGPIPE, what a
shell reports for a writer the signal ends; nothing is printed).

Only ``betti`` needs the resolution layer, so it imports it when it runs:
the other commands then never compile it, which matters where no bytecode
cache is written and every process compiles its modules afresh.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import stat
import sys
from functools import lru_cache

from .errors import (
    IdealfamError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .family import (
    DEFAULT_PRIME,
    FamilyParams,
    _family_reports,
    build_ideal,
    caviglia_ideal,
    caviglia_witness,
    derived_constants,
    mccullough_ideal,
    mccullough_witness,
    pd_formula,
    preset_many_generators,
    preset_three_generators,
    stage_count,
    variable_count,
    verify_socle_ideal,
)
from .groebner import DEFAULT_PAIR_LIMIT, buchberger
from .ring import PrimeField, QQ, _term_text, format_monomial

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4
# stdout's reader went away: 128 + SIGPIPE, as a shell reports a writer
# that signal ended, and neither a verdict nor an error of the input.
EXIT_BROKEN_PIPE = 141


def _parse_field(text):
    if text.upper() == "QQ":
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise ValidationError(f"--field expects a prime or QQ, got {text!r}") from None
    return PrimeField(p)


def _int_arguments(values, usage):
    try:
        return tuple(int(x) for x in values)
    except ValueError:
        raise ValidationError(
            f"{usage}: expected integers, got {' '.join(values)!r}"
        ) from None


def _build_target(target, field):
    """Resolve a CLI target (argparse ensures one word at least) into (kind, ideal, extras)."""
    head = target[0]
    if head == "mccullough":
        if len(target) != 4:
            raise ValidationError("usage: mccullough M N D")
        m, n, d = _int_arguments(target[1:], "usage: mccullough M N D")
        return ("mccullough", mccullough_ideal(m, n, d, field), (m, n, d))
    if head == "caviglia":
        if len(target) != 2:
            raise ValidationError("usage: caviglia D")
        (d,) = _int_arguments(target[1:], "usage: caviglia D")
        return ("caviglia", caviglia_ideal(d, field), (d,))
    if len(target) != 1:
        raise ValidationError(f"unrecognized target {' '.join(target)!r}")
    params = FamilyParams.parse(head)
    return ("family", build_ideal(params, field), params)


def _constants_payload(params):
    cs = derived_constants(params)
    return {
        "g": params.g,
        "m": list(params.m),
        "d": list(cs.d),
        "M": list(cs.M),
        "A_sizes": [stage_count(params, k) for k in range(params.n + 1)],
        "variable_count": variable_count(params),
        "pd_formula": pd_formula(params),
    }


def _payload(kind, extra, ideal, report, **more):
    """The JSON payload: params, constants, generators, ``more``, report."""
    family = kind == "family"
    return {
        "params": str(extra) if family else {"constructor": kind, "arguments": list(extra)},
        "constants": _constants_payload(extra) if family else None,
        "generators": None if ideal is None else [str(g) for g in ideal.generators],
        **more,
        "report": report,
    }


def _m2_script(ideal, compute_betti=False):
    """One-way export for independent cross-checking."""
    ring = ideal.ring
    names = ring.table.names
    lines = ["-- generated by idealfam; variable key:"]
    for i, name in enumerate(names):
        lines.append(f"--   v_{i} = {name}")
    coeff = "QQ" if not ring.field.is_prime_field else f"ZZ/{ring.field.p}"
    n = len(names)
    lines.append(f"R = {coeff}[v_0..v_{n - 1}];")
    v_names = [f"v_{i}" for i in range(n)]
    # Signs stay in the coefficients: M2 reads "a + -3/2*b".
    rendered = [
        " + ".join(_term_text(c, format_monomial(v_names, e)) for e, c in g.terms)
        for g in ideal.generators
    ]
    lines.append("I = ideal(")
    lines.append(",\n".join("  " + r for r in rendered))
    lines.append(");")
    if compute_betti:
        lines.append("betti res I")
    return "\n".join(lines) + "\n"


# A write that fails for want of room is a resource limit, not bad input.
_NO_ROOM = (errno.ENOSPC, errno.EDQUOT, errno.EFBIG)


def _out_error(path, err):
    kind = ResourceLimitError if err.errno in _NO_ROOM else ValidationError
    return kind(f"cannot write --out {path}: {err.strerror}")


def _emit(text, args):
    """Print ``text``, or write it with a final newline to ``--out``.

    The file is overwritten in place and then trimmed to the bytes written;
    it is never truncated to zero first.  Where the file system discards
    freed blocks (ext4 mounted with ``discard``), ``open(path, "w")`` spends
    60-90 ms in ``O_TRUNC`` on a file that holds data, whatever its size,
    where the sweep it reports takes 2 ms; the in-place rewrite of a 40 KB
    file takes about 0.01 ms.  Replacing the file by a new one costs as much,
    since freeing the old inode frees its blocks.
    """
    if not args.out:
        print(text)
        return
    try:
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as err:
        raise _out_error(args.out, err) from None
    # Devices and pipes (/dev/null, /dev/full) have no tail to trim.
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    try:
        with open(fd, "w", closefd=False) as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as err:
        if regular:
            # No old bytes may outlast a failed write past the new ones.
            os.ftruncate(fd, 0)
        raise _out_error(args.out, err) from None
    finally:
        os.close(fd)


def cmd_construct(args) -> int:
    kind, ideal, extra = _build_target(args.target, args.field)
    if args.fmt == "m2":
        _emit(_m2_script(ideal), args)
        return EXIT_OK
    payload = _payload(kind, extra, ideal, None, variables=list(ideal.ring.table.names))
    if args.fmt == "json":
        _emit(json.dumps(payload, indent=2), args)
        return EXIT_OK
    lines = []
    if kind == "family":
        cs = payload["constants"]
        lines.append(f"params: {payload['params']}")
        lines.append(f"degrees d_k: {cs['d']}")
        lines.append(f"bounds  M_k: {cs['M']}")
        lines.append(f"stage sizes |A_k| (k=0..n): {cs['A_sizes']}")
        lines.append(f"variables ({len(payload['variables'])}): {', '.join(payload['variables'])}")
        lines.append(f"pd formula: {cs['pd_formula']}   variable count: {cs['variable_count']}")
    else:
        lines.append(f"constructor: {payload['params']}")
        lines.append(f"variables ({len(payload['variables'])}): {', '.join(payload['variables'])}")
    lines.append("generators:")
    for g in payload["generators"]:
        lines.append(f"  {g}")
    _emit("\n".join(lines), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    kind, ideal, extra = _build_target(args.target, args.field)
    limits = {"degree_limit": args.degree_limit, "pair_limit": args.pair_limit}
    if kind == "family":
        socle, lemma = _family_reports(extra, ideal, **limits)
        lemma = lemma.as_dict()
    else:
        make = mccullough_witness if kind == "mccullough" else caviglia_witness
        socle = verify_socle_ideal(ideal, make(*extra, ideal.ring.table), **limits)
        lemma = None
    ok = socle.conclusion and (lemma is None or lemma["ok"])
    payload = _payload(kind, extra, ideal, {"socle": socle.as_dict(), "lemma": lemma})
    if args.fmt == "json":
        _emit(json.dumps(payload, indent=2), args)
    else:
        lines = [f"target: {payload['params']}"]
        lines.append(f"witness: {payload['report']['socle']['witness']}")
        lines.append(f"witness outside ideal: {payload['report']['socle']['not_in_ideal']}")
        killed = payload["report"]["socle"]["killed_by"]
        bad = [name for name, good in killed.items() if not good]
        lines.append(
            f"every variable kills the witness: {not bad}"
            + (f" (failing: {', '.join(bad)})" if bad else "")
        )
        if lemma is not None:
            lines.append(f"stage monomials in ideal: {lemma['ok']}")
        lines.append(
            f"depth-zero verified: {ok}; implied pd = {payload['report']['socle']['implied_pd']}"
        )
        _emit("\n".join(lines), args)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _corollary_notes(params):
    notes = []
    for p in (2, 3):
        if params == preset_three_generators(p):
            cs = derived_constants(params)
            notes.append(
                f"three-generator preset p={p}: degree {cs.degree} = {p}^2, "
                f"pd {pd_formula(params)} >= {p ** (p - 1)} = p^(p-1)"
            )
    for p in (1, 2, 3):
        if params == preset_many_generators(p):
            cs = derived_constants(params)
            notes.append(
                f"many-generator preset p={p}: {2 * p + 1} generators of degree "
                f"{cs.degree} = 2p+1, pd {pd_formula(params)} >= {p ** (2 * p)} = p^(2p)"
            )
    return notes


def cmd_pd(args) -> int:
    if len(args.target) != 1:
        raise ValidationError("pd expects family parameters like 2:(2,2,2)")
    params = FamilyParams.parse(args.target[0])
    formula = pd_formula(params)
    count = variable_count(params)
    if args.fmt == "json":
        report = {
            "pd_formula": formula,
            "variable_count": count,
            "agree": formula == count,
            "corollary_notes": _corollary_notes(params),
        }
        _emit(json.dumps(_payload("family", params, None, report), indent=2), args)
    else:
        lines = [f"pd formula: {formula}", f"variable count: {count}"]
        lines += _corollary_notes(params)
        _emit("\n".join(lines), args)
    return EXIT_OK if formula == count else EXIT_VERIFICATION_FAILED


def cmd_betti(args) -> int:
    kind, ideal, extra = _build_target(args.target, args.field)
    if args.fmt == "m2":
        _emit(_m2_script(ideal, compute_betti=True), args)
        return EXIT_OK
    # Imported here, so that no other command compiles the resolution layer.
    from .resolution import resolve

    limit = args.degree_limit
    # The table holds for any Groebner basis; only a full one is worth reducing.
    gb = buchberger(
        ideal, degree_limit=limit, pair_limit=args.pair_limit, interreduce=limit is None
    )
    table = resolve(gb, degree_limit=limit)
    report = {
        "betti": table.triples(),
        "pd": table.pd,
        "reg": table.reg,
        "truncated_at": table.truncated_at,
    }
    if args.fmt == "json":
        _emit(json.dumps(_payload(kind, extra, ideal, report), indent=2), args)
    else:
        lines = []
        if table.truncated_at is not None:
            lines.append(
                f"*** truncated at internal degree {table.truncated_at}; "
                "entries above it are absent ***"
            )
        lines.append(table.render())
        lines.append(f"pd = {table.pd}   reg = {table.reg}")
        _emit("\n".join(lines), args)
    return EXIT_OK


def _sweep_instance(args):
    g, m, do_verify, field, pair_limit = args
    params = FamilyParams(g, m)
    formula = pd_formula(params)
    count = variable_count(params)
    row = {
        "params": str(params),
        "pd_formula": formula,
        "variable_count": count,
        "agree": formula == count,
    }
    if do_verify:
        socle, lemma = _family_reports(params, field=field, pair_limit=pair_limit)
        row["socle"] = socle.conclusion
        row["lemma"] = lemma.ok
    return row


# One C-encoder call lays the rows out as indent=2 puts their items: the
# item separator breaks the line and indents to the depth of a row's keys.
_ROWS = json.JSONEncoder(separators=(",\n      ", ": "))


def _sweep_json(rows, ok):
    """``json.dumps({"rows": rows, "ok": ok}, indent=2)``, byte for byte.

    ``indent`` forces the pure-Python encoder, about three times slower on
    the sweep's flat rows than the C encoder, so the rows are encoded in
    one `_ROWS` call and only the row boundaries are mended.  Every value
    is a str, int or bool, so no other brace follows a line break (the
    encoder escapes one inside a string); a sweep has at least one row.
    """
    body = _ROWS.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return f'{{\n  "rows": [\n    {{\n      {body}\n    }}\n  ],\n  "ok": {json.dumps(ok)}\n}}'


def cmd_sweep(args) -> int:
    instances = []
    for n in range(1, args.max_n + 1):
        ranges = []
        for i in range(n):
            if i == n - 1:
                lo = 0
            elif i == n - 2:
                lo = 1
            else:
                lo = 2
            ranges.append(range(lo, args.max_m + 1))
        for m in itertools.product(*ranges):
            for g in range(2, args.max_g + 1):
                instances.append((g, m, args.verify, args.field, args.pair_limit))
    if args.jobs > 1:
        # Imported here: the import costs about 12 ms, which every other
        # command would pay at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_instance, instances))
    else:
        rows = [_sweep_instance(item) for item in instances]
    ok = all(
        row["agree"] and row.get("socle", True) and row.get("lemma", True)
        for row in rows
    )
    if args.fmt == "json":
        _emit(_sweep_json(rows, ok), args)
    else:
        lines = []
        for row in rows:
            extra = ""
            if "socle" in row:
                extra = f" socle={row['socle']} lemma={row['lemma']}"
            lines.append(
                f"{row['params']:>16}  pd={row['pd_formula']:<8} vars={row['variable_count']:<8}"
                f" agree={row['agree']}{extra}"
            )
        lines.append(f"{len(rows)} instances; all consistent: {ok}")
        _emit("\n".join(lines), args)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


# Every option, by the name the commands list it under.
_OPTIONS = {
    "--field": dict(default=str(DEFAULT_PRIME), help="prime modulus or QQ"),
    "--degree-limit": dict(type=int, default=None,
                           help="truncate Groebner/resolution computations at this degree"),
    "--out": dict(default=None, help="write output to a file"),
    "--jobs": dict(type=int, default=1, help="parallel workers"),
    "--pair-limit": dict(type=int, default=DEFAULT_PAIR_LIMIT,
                         help="bound on queued Groebner pairs"),
    "--max-g": dict(type=int, default=4),
    "--max-n": dict(type=int, default=3),
    "--max-m": dict(type=int, default=4),
    "--verify": dict(action="store_true",
                     help="also run socle/lemma verification per instance"),
}

# command: (handler, help, takes a target, --format choices, other options)
_COMMANDS = {
    "construct": (cmd_construct, "build an ideal and print it", True,
                  ("text", "json", "m2"), ("--field",)),
    "verify": (cmd_verify, "run the socle and stage-monomial checks", True,
               ("text", "json"), ("--field", "--degree-limit", "--pair-limit")),
    "pd": (cmd_pd, "evaluate the projective-dimension formula", True,
           ("text", "json"), ()),
    "betti": (cmd_betti, "resolve and print the Betti table", True,
              ("text", "json", "m2"), ("--field", "--degree-limit", "--pair-limit")),
    "sweep": (cmd_sweep, "scan parameter space for consistency", False,
              ("text", "json"),
              ("--field", "--jobs", "--pair-limit", "--max-g", "--max-n", "--max-m", "--verify")),
}

# (attribute, least allowed value, message) for the integer options
_LOWER_BOUNDS = (
    ("degree_limit", 1, "--degree-limit must be positive"),
    ("pair_limit", 0, "--pair-limit must be nonnegative"),
    ("jobs", 1, "--jobs must be at least 1"),
    ("max_g", 2, "--max-g must be at least 2"),
    ("max_n", 1, "--max-n must be at least 1"),
    ("max_m", 0, "--max-m must be nonnegative"),
)


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="idealfam",
        description=(
            "Construct ideal families with extremal projective dimension and "
            "regularity, verify depth zero via socle witnesses, and compute "
            "Betti tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, takes_target, formats, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--format", dest="fmt", choices=formats, default="text")
        p.add_argument("--out", **_OPTIONS["--out"])
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        if takes_target:
            p.add_argument("target", nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "field" in args:
            args.field = _parse_field(args.field)
        for name, low, message in _LOWER_BOUNDS:
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise ValidationError(message)
        return _COMMANDS[args.command][0](args)
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (ValidationError, ParseError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except IdealfamError as err:
        # Any other package error inside a run is a bug, not bad input.
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    except OSError as err:
        if err.errno not in _NO_ROOM:
            raise
        print(f"resource limit: cannot write standard output: {err.strerror}",
              file=sys.stderr)
        code = EXIT_RESOURCE_LIMIT
    else:
        raise SystemExit(code)
    # Point stdout at devnull, so the flush at exit does not fail again
    # (the recipe of the Python docs, "Note on SIGPIPE").
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
