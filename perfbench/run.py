#!/usr/bin/env python3
"""Benchmark of the idealfam package: verify, resolve and sweep workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-manifest

Each workload is a closed loop over its instance list: the next instance
starts when the previous one finishes, until ``--seconds`` have passed and
at least one full pass (two with ``--trace 1``) is done.  Every answer is
checked outside the timed region.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every answer
check passed; it is 2, with no result printed, when the package source is
missing.

``wall_s`` is the sum over instances of each instance's mean time: one
pass over the whole list.  ``setup_s`` is a fresh import of the package
plus input generation, repeated before every attempt (the run itself uses
the first import) and reported as the mean of the middle half.

Every reported time is in reference seconds: the wall time multiplied by
``REF_SECONDS`` over the mean measured time of ``reference_loop``, fixed
pure-Python work shaped like the package's kernels that runs before every
attempt.  Set-up time is scaled by the same factor.  On a machine shared
with other tenants the processor's speed drifts by 20% or more between
phases lasting from seconds to minutes; raw times move with it while their
ratio to the reference loop moves much less.  A change to idealfam does not
touch the loop, so it moves reference seconds as it moves raw ones.  The
raw times and the speed factor are printed next to the reference seconds.

A traced run alternates traced and untraced passes.  Traced passes record
a span around every public call the benchmark makes; the spans are kept in
memory and written to ``perfbench/out`` at the end.  Per-layer times are
span self times, taken as the mean over passes for each instance and
summed over instances, like ``wall_s``.  The tracing overhead is traced
``wall_s`` minus untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from tracing import NULL_TRACER, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 30

# A fixed scale: one reference second is one wall second on a host that runs
# reference_loop in REF_SECONDS.  A shared 2-core x86-64 KVM guest with
# CPython 3.11 took 30 ms in fast phases and 55 ms in slow ones.
REF_ITERATIONS = 30_000
REF_SECONDS = 0.050

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("family.build_ideal_s", "s"),
    ("family.enumerate_A_s", "s"),
    ("family.pd_formula_s", "s"),
    ("family.verification_basis_s", "s"),
    ("family.verify_socle_s", "s"),
    ("family.verify_lemma_s", "s"),
    ("family.membership_tests", "count"),
    ("family.stage_matrices", "count"),
    ("ring.poly_s", "s"),
    ("groebner.buchberger_s", "s"),
    ("groebner.buchberger_calls", "count"),
    ("groebner.basis_elements", "count"),
    ("groebner.hilbert_numerator_s", "s"),
    ("resolution.schreyer_s", "s"),
    ("resolution.minimalize_s", "s"),
    ("resolution.betti_s", "s"),
    ("resolution.nonminimal_rank", "count"),
    ("resolution.minimal_rank", "count"),
    ("resolution.useful_ratio", "ratio"),
    ("cli.sweep_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.rows", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Spans that group other spans rather than timing a call into a layer.
_GROUPING_SPANS = ("bench.instance", "sweep.replay")


class MissingSource(Exception):
    """The checkout holds no idealfam source to benchmark."""


def package_modules():
    """The idealfam modules now in ``sys.modules``."""
    return {k: v for k, v in sys.modules.items() if k == "idealfam" or k.startswith("idealfam.")}


def restore_package(saved):
    """Put back the package modules ``package_modules`` returned earlier."""
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def import_api():
    """Import idealfam afresh from the checkout's ``src`` directory."""
    if not (SRC / "idealfam" / "__init__.py").is_file():
        raise MissingSource(f"no idealfam package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    restore_package({})
    api = importlib.import_module("idealfam")
    importlib.import_module("idealfam.cli")
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise MissingSource(f"idealfam was imported from {api.__file__}, not {SRC}")
    return api


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if u == "ratio" else "lower"}
            for n, u in PER_LAYER
        ],
    }


def reference_loop():
    """Fixed work with the kernels' shape: tuple keys, dict updates, mod p."""
    acc = {}
    for i in range(REF_ITERATIONS):
        key = (i % 7, i % 11, i % 13, i % 17)
        shifted = tuple(a + b for a, b in zip(key, (1, 2, 3, 4)))
        acc[shifted] = (acc.get(shifted, 0) + i * 7919) % 32003
    return len(acc)


def _timed_reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def _timed_setup(workload, seed, tracer, working):
    """One fresh import plus input generation; ``working`` is restored after."""
    t0 = time.perf_counter()
    workload.setup(import_api(), seed, tracer, OUT)
    elapsed = time.perf_counter() - t0
    restore_package(working)
    return elapsed


def _middle_mean(values):
    """Mean of the middle half: phases are averaged, single spikes dropped."""
    ordered = sorted(values)
    q = len(ordered) // 4
    return statistics.fmean(ordered[q:len(ordered) - q])


def _mean_sum(samples):
    """Sum over keys of the mean of each key's samples."""
    return sum(statistics.fmean(v) for v in samples.values() if v)


def _merge_counters(seen, got):
    """Record an attempt's counters; False when one differs from before."""
    steady = True
    for name, value in got.items():
        if seen.setdefault(name, value) != value:
            print(f"counter {name} changed: {seen[name]} then {value}", file=sys.stderr)
            steady = False
    return steady


def run_workload(workload, seed, seconds, trace):
    """Set up, run the closed loop and aggregate; returns a result dict."""
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else NULL_TRACER

    api = import_api()
    instances = workload.setup(api, seed, NULL_TRACER, OUT)
    working = package_modules()

    n = len(instances)
    min_attempts = n * (2 if trace else 1)
    plain = {inst.id: [] for inst in instances}
    traced = {inst.id: [] for inst in instances}
    counters = {inst.id: {} for inst in instances}
    setup_times = []
    refs = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_attempts or time.perf_counter() < deadline:
        inst = instances[k % n]
        attempt = k // n
        k += 1
        tr = tracer if trace and attempt % 2 == 0 else NULL_TRACER
        attempted += 1
        gc.collect()
        tracer.begin("setup", k)
        setup_times.append(_timed_setup(workload, seed, tracer, working))
        gc.collect()
        refs.append(_timed_reference())
        tr.begin(inst.id, attempt)
        ok = False
        try:
            t0 = time.perf_counter()
            with tr.span("bench.instance"):
                result = workload.run(api, inst, tr)
            elapsed = time.perf_counter() - t0
            (traced if tr.enabled else plain)[inst.id].append(elapsed)
            ok, got = workload.check(api, inst, result, tr)
            ok = _merge_counters(counters[inst.id], got) and ok
            del result
        except Exception:  # a raising instance is a failed attempt, not a crash
            traceback.print_exc(file=sys.stderr)
        if not ok:
            failed += 1
            print(f"answer check failed: {workload.name} {inst.id} attempt {attempt}",
                  file=sys.stderr)

    speed = REF_SECONDS / statistics.fmean(refs)
    raw = {"wall_s": _mean_sum(plain), "setup_s": _middle_mean(setup_times)}
    res = {
        "workload": workload.name,
        "seed": seed,
        "prime": instances[0].prime,
        "instances": n,
        "attempted": attempted,
        "failed": failed,
        "speed": speed,
        "raw": raw,
        "e2e": {
            "wall_s": raw["wall_s"] * speed,
            "setup_s": raw["setup_s"] * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if trace:
        res["layers"] = _layer_metrics(tracer.spans, counters, traced, plain, speed)
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        tracer.write(spans_path)
        res["spans_path"] = str(spans_path.relative_to(ROOT))
    return res


def _layer_metrics(spans, counters, traced, plain, speed):
    per_attempt = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        per_attempt[(span.instance, span.name, span.attempt)] += t
    by_layer = defaultdict(lambda: defaultdict(list))
    for (instance, name, _), t in per_attempt.items():
        if name not in _GROUPING_SPANS:
            by_layer[name + "_s"][instance].append(t)
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER}
    for name, samples in by_layer.items():
        out[name] = _mean_sum(samples)
    for per_instance in counters.values():
        for name, value in per_instance.items():
            out[name] += value

    # Total replay time of each instance: the CLI's cost is the rest.
    replay = defaultdict(list)
    for span in spans:
        if span.name == "sweep.replay":
            replay[span.instance].append(span.end - span.start)
    if replay:
        out["cli.overhead_s"] = out["cli.sweep_s"] - _mean_sum(replay)

    nonminimal = out["resolution.nonminimal_rank"]
    out["resolution.useful_ratio"] = out["resolution.minimal_rank"] / nonminimal if nonminimal else 0.0
    out["trace.wall_s"] = _mean_sum(traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - _mean_sum(plain)
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] *= speed
    return out


def report(res, trace):
    """Human-readable lines, then the metrics dict for the JSON result."""
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {res['workload']}: seed {res['seed']}, prime {res['prime']}, "
          f"{res['instances']} instances, {attempted} attempts, "
          f"speed {res['speed']:.3f} of the reference host")
    units = {n: u for n, u, _, _ in END_TO_END}
    for name, value in res["e2e"].items():
        raw = f"  (raw {res['raw'][name]:.6f} s)" if name in res["raw"] else ""
        print(f"  {name:<32} {value:14.6f} {units[name]}{raw}")
    print(f"  {'failed_frac':<32} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    if not trace:
        return {n: {"value": res["e2e"][n], "unit": units[n]} for n in units}
    print(f"  per-layer (spans in {res['spans_path']}):")
    for name, unit in PER_LAYER:
        value = res["layers"][name]
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:<32} {text} {unit}")
    return {n: {"value": res["layers"][n], "unit": u} for n, u in PER_LAYER}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
            attempted += res["attempted"]
            failed += res["failed"]
            got = report(res, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except MissingSource as err:
        print(f"cannot run the benchmark: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
