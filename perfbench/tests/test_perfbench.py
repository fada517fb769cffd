"""Tests of the benchmark itself, on reduced instance lists.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

SMALL = {
    "verify": lambda: workloads.VerifyWorkload(("2:(2,2,2)", "2:(3,1)")),
    "resolve": lambda: workloads.ResolveWorkload((("caviglia", 3), ("caviglia", 4))),
    "sweep": lambda: workloads.SweepWorkload((
        ("pd", ("--max-g", "3", "--max-n", "2", "--max-m", "3"), 32),
        ("verify", ("--verify", "--max-g", "2", "--max-n", "1", "--max-m", "2"), 3),
    )),
}

COUNTERS = [name for name, unit in run.PER_LAYER if unit == "count"]


@pytest.fixture(autouse=True)
def restore_package():
    """The benchmark re-imports idealfam; give other tests back their modules."""
    saved = run.package_modules()
    yield
    run.restore_package(saved)


@pytest.fixture(scope="module")
def small_runs():
    saved = run.package_modules()
    seeds = (1, 2)
    assert workloads.seeded(seeds[0])[1] != workloads.seeded(seeds[1])[1]
    out = {
        (name, seed): run.run_workload(make(), seed, 0, trace=True)
        for name, make in SMALL.items()
        for seed in seeds
    }
    run.restore_package(saved)
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_workload_passes_its_checks(small_runs, name):
    res = small_runs[(name, 1)]
    assert res["failed"] == 0
    assert res["attempted"] >= 2 * res["instances"]
    assert res["e2e"]["wall_s"] > 0 and res["e2e"]["setup_s"] > 0
    assert set(res["layers"]) == {n for n, _ in run.PER_LAYER}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counters_identical_across_seeds(small_runs, name):
    one, two = small_runs[(name, 1)], small_runs[(name, 2)]
    assert one["prime"] != two["prime"]
    assert {c: one["layers"][c] for c in COUNTERS} == {c: two["layers"][c] for c in COUNTERS}


def test_counters_match_the_instances(small_runs):
    verify = small_runs[("verify", 1)]["layers"]
    assert verify["groebner.buchberger_calls"] == 2
    assert verify["groebner.basis_elements"] > 0
    resolve = small_runs[("resolve", 1)]["layers"]
    # caviglia(3) totals [1,3,6,6,2], caviglia(4) totals [1,3,7,8,3]
    assert resolve["resolution.minimal_rank"] == 18 + 22
    assert 0 < resolve["resolution.useful_ratio"] < 1
    sweep = small_runs[("sweep", 1)]["layers"]
    assert sweep["cli.rows"] == 35
    assert sweep["family.stage_matrices"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_answers_identical_across_seeds(name):
    # Each seed imports the package afresh, so compare plain data only.
    answers = []
    for seed in (1, 2):
        wl = SMALL[name]()
        api = run.import_api()
        got = []
        for inst in wl.setup(api, seed, run.NULL_TRACER, run.OUT):
            result = wl.run(api, inst, run.NULL_TRACER)
            assert wl.check(api, inst, result, run.NULL_TRACER)[0]
            if name == "verify":
                gb, socle, lemma = result
                got.append(([str(m) for m in gb.leading_monomials()], socle.as_dict(), lemma.ok))
            elif name == "resolve":
                got.append(result[2].triples())
            else:
                with open(inst.extra["out"]) as fh:
                    got.append(json.load(fh))
        answers.append(got)
    assert answers[0] == answers[1]


def test_failed_check_counts_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "caviglia_reg", lambda d: -1)
    monkeypatch.setitem(run.WORKLOADS, "resolve", SMALL["resolve"])
    assert run.main(["--workload", "resolve", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_changed_counter_is_a_failure():
    seen = {}
    assert run._merge_counters(seen, {"cli.rows": 3})
    assert run._merge_counters(seen, {"cli.rows": 3, "family.stage_matrices": 1})
    assert not run._merge_counters(seen, {"cli.rows": 4})


def test_self_time_subtracts_children():
    spans = [
        Span("bench.instance", 0.0, 10.0, None, "a", 0),
        Span("groebner.buchberger", 1.0, 4.0, 0, "a", 0),
        Span("family.verify_socle", 4.0, 9.0, 0, "a", 0),
    ]
    assert self_times(spans) == [2.0, 3.0, 5.0]


def test_manifest_is_committed():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.manifest()


def test_missing_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
