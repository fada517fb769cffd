"""Seeded inputs, timed calls and answer checks for each workload.

Every workload receives the freshly imported ``idealfam`` package as
``api`` and talks to it only through its public functions.  ``setup``
builds the inputs from the seed, ``run`` makes the timed calls and
``check`` verifies the answers outside the timed region, returning the
exact counters of the attempt alongside the verdict.

The seed picks a prime from ``PRIMES`` and a random diagonal rescaling
x_i -> c_i * x_i of every ideal.  Rescaling is a ring automorphism that
fixes every monomial, so lead terms, socle answers, basis sizes and Betti
tables -- and with them every check and counter -- are the same on every
seed.  The primes all lie just below 2^15 so that every coefficient and
every product of two coefficients fits one 30-bit CPython digit: the
prime's size alone moves Buchberger time by up to 60%, which would
otherwise make the seed, not the code, dominate the spread.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from golden import GOLDEN_ROWS, GOLDEN_TOTALS, SWEEP_ROWS, caviglia_reg, golden_entries

PRIMES = (32003, 32009, 32027, 32029, 32051, 32057, 32717, 32749)


@dataclass
class Instance:
    """One unit of closed-loop work: the next starts when it finishes."""

    id: str
    kind: str
    prime: int
    ideal: object = None
    extra: dict = field(default_factory=dict)


def seeded(seed):
    """The seed's random stream and the prime it picks."""
    rng = random.Random(seed)
    return rng, rng.choice(PRIMES)


def rescale(api, ideal, rng):
    """The ideal's image under a random diagonal rescaling of the variables."""
    ring = ideal.ring
    p = ring.field.p
    scale = [rng.randrange(1, p) for _ in range(ring.nvars)]
    gens = []
    for gen in ideal.generators:
        terms = []
        for exps, c in gen.terms:
            for s, e in zip(scale, exps):
                if e:
                    c = c * pow(s, e, p) % p
            terms.append((exps, c))
        gens.append(ring.poly(terms))
    return api.IdealPresentation(ring, gens)


def _membership_tests(api, params, gb, socle):
    # verify_socle tests the witness and its product with every variable;
    # verify_lemma tests every stage monomial.
    return 1 + len(socle.killed_by) + len(api.lemma_targets(params, gb.ring.table))


class VerifyWorkload:
    """Depth-zero certificate: truncated basis, socle check, stage lemma."""

    name = "verify"
    why = (
        "depth-zero certificates of six family instances; groebner.buchberger "
        "does about 80% of the work, membership tests about 18%"
    )
    DEFAULT = ("2:(2,2,2)", "3:(2,1)", "4:(2)", "2:(4,3)", "2:(4,2,1)", "2:(2,3,4)")

    def __init__(self, specs=DEFAULT):
        self.specs = tuple(specs)

    def setup(self, api, seed, tracer, out_dir):
        rng, prime = seeded(seed)
        field = api.PrimeField(prime)
        out = []
        for text in self.specs:
            params = api.FamilyParams.parse(text)
            with tracer.span("family.build_ideal"):
                ideal = api.build_ideal(params, field)
            with tracer.span("ring.poly"):
                ideal = rescale(api, ideal, rng)
            extra = {"params": params, "degree_limit": api.verification_degree(params)}
            out.append(Instance(text, "family", prime, ideal, extra))
        return out

    def run(self, api, inst, tracer):
        params = inst.extra["params"]
        with tracer.span("groebner.buchberger"):
            gb = api.buchberger(
                inst.ideal,
                degree_limit=inst.extra["degree_limit"],
                tail_reduce=False,
                interreduce=False,
            )
        with tracer.span("family.verify_socle"):
            socle = api.verify_socle(params, gb)
        with tracer.span("family.verify_lemma"):
            lemma = api.verify_lemma(params, gb)
        return gb, socle, lemma

    def check(self, api, inst, result, tracer):
        params = inst.extra["params"]
        gb, socle, lemma = result
        ok = socle.conclusion and lemma.ok and socle.implied_pd == api.pd_formula(params)
        counters = {
            "groebner.buchberger_calls": 1,
            "groebner.basis_elements": len(gb),
            "family.membership_tests": _membership_tests(api, params, gb, socle),
        }
        return ok, counters


class ResolveWorkload:
    """Betti tables: full basis, Schreyer resolution, minimalization."""

    name = "resolve"
    why = (
        "Betti tables of four ideal kinds; resolution does about 95% of the "
        "work (schreyer 37%, minimalize 58%) and groebner about 5%"
    )
    DEFAULT = (
        ("family", "2:(3,1)"),
        ("family", "2:(2,1,2)"),
        ("mccullough", (3, 1, 3)),
    ) + tuple(("caviglia", d) for d in range(3, 8))

    def __init__(self, specs=DEFAULT):
        self.specs = tuple(specs)

    def setup(self, api, seed, tracer, out_dir):
        rng, prime = seeded(seed)
        field = api.PrimeField(prime)
        out = []
        for kind, arg in self.specs:
            with tracer.span("family.build_ideal"):
                if kind == "family":
                    label = arg
                    ideal = api.build_ideal(api.FamilyParams.parse(arg), field)
                elif kind == "mccullough":
                    label = f"mccullough({','.join(map(str, arg))})"
                    ideal = api.mccullough_ideal(*arg, field)
                else:
                    label = f"caviglia({arg})"
                    ideal = api.caviglia_ideal(arg, field)
            with tracer.span("ring.poly"):
                ideal = rescale(api, ideal, rng)
            out.append(Instance(label, kind, prime, ideal, {"arg": arg}))
        return out

    def run(self, api, inst, tracer):
        with tracer.span("groebner.buchberger"):
            gb = api.buchberger(inst.ideal)
        with tracer.span("resolution.schreyer"):
            res = api.schreyer_resolution(gb)
        with tracer.span("resolution.minimalize"):
            minimal = res.minimalize()
        with tracer.span("resolution.betti"):
            table = minimal.betti()
        return gb, res, table

    def check(self, api, inst, result, tracer):
        gb, res, table = result
        if inst.kind == "family":
            ok = table.entries == golden_entries(GOLDEN_ROWS[inst.id])
        elif inst.kind == "mccullough":
            want = GOLDEN_TOTALS[inst.id]
            ok = (table.totals(), table.pd, table.reg) == (want["totals"], want["pd"], want["reg"])
        else:
            ok = table.reg == caviglia_reg(inst.extra["arg"])
        with tracer.span("groebner.hilbert_numerator"):
            numerator = api.hilbert_numerator(gb)
        ok = ok and table.truncated_at is None and api.hilbert_crosscheck(table, numerator)
        counters = {
            "groebner.buchberger_calls": 1,
            "groebner.basis_elements": len(gb),
            "resolution.nonminimal_rank": sum(m.rank for m in res.modules),
            "resolution.minimal_rank": sum(table.totals()),
        }
        return ok, counters


class SweepWorkload:
    """Two calls to the command-line sweep, answers read from its JSON."""

    name = "sweep"
    why = (
        "two idealfam sweep CLI calls: 255 pd-formula rows (enumerate_A bound) "
        "and 16 tiny verified instances (per-call set-up bound)"
    )
    # (label, extra flags, expected row count)
    DEFAULT = (
        ("pd", (), SWEEP_ROWS["pd"]),
        ("verify", ("--verify", "--max-g", "2", "--max-n", "2", "--max-m", "3"),
         SWEEP_ROWS["verify"]),
    )

    def __init__(self, specs=DEFAULT):
        self.specs = tuple(specs)

    def setup(self, api, seed, tracer, out_dir):
        _, prime = seeded(seed)
        out = []
        for label, flags, rows in self.specs:
            path = out_dir / f"sweep-{label}.json"
            argv = ["sweep", *flags, "--field", str(prime), "--format", "json",
                    "--out", str(path), "--jobs", "1"]
            extra = {"argv": argv, "out": path, "rows": rows, "verify": "--verify" in flags}
            out.append(Instance(f"sweep-{label}", label, prime, None, extra))
        return out

    def run(self, api, inst, tracer):
        with tracer.span("cli.sweep"):
            return api.cli.main(list(inst.extra["argv"]))

    def check(self, api, inst, result, tracer):
        with open(inst.extra["out"]) as fh:
            payload = json.load(fh)
        rows = payload["rows"]
        ok = result == 0 and payload["ok"] is True and len(rows) == inst.extra["rows"]
        params_list = [api.FamilyParams.parse(row["params"]) for row in rows]
        counters = {
            "cli.rows": len(rows),
            # variable_count is the grid plus the top-stage matrices
            "family.stage_matrices": sum(
                row["variable_count"] - p.g * p.n for p, row in zip(params_list, rows)
            ),
        }
        if tracer.enabled:
            replay_ok, replay_counters = self._replay(api, inst, params_list, rows, tracer)
            ok = ok and replay_ok
            counters.update(replay_counters)
        return ok, counters

    def _replay(self, api, inst, params_list, rows, tracer):
        """The CLI's instance list again, through the public functions it calls.

        The replay's total time, subtracted from ``cli.sweep``, is the
        command line's own cost.
        """
        ok = True
        elements = tests = 0
        field = api.PrimeField(inst.prime)
        verify = inst.extra["verify"]
        with tracer.span("sweep.replay"):
            for params, row in zip(params_list, rows):
                with tracer.span("family.pd_formula"):
                    formula = api.pd_formula(params)
                with tracer.span("family.enumerate_A"):
                    count = api.variable_count(params)
                ok = ok and formula == row["pd_formula"] and count == row["variable_count"]
                if not verify:
                    continue
                with tracer.span("family.verification_basis"):
                    gb = api.verification_basis(params, field)
                with tracer.span("family.verify_socle"):
                    socle = api.verify_socle(params, gb)
                with tracer.span("family.verify_lemma"):
                    lemma = api.verify_lemma(params, gb)
                ok = ok and socle.conclusion == row["socle"] and lemma.ok == row["lemma"]
                elements += len(gb)
                tests += _membership_tests(api, params, gb, socle)
        counters = {"groebner.basis_elements": elements}
        if verify:
            counters["family.membership_tests"] = tests
        return ok, counters


WORKLOADS = {w.name: w for w in (VerifyWorkload, ResolveWorkload, SweepWorkload)}
