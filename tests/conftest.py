"""Shared test helpers: small rings, random polynomials, a span-based
membership oracle independent of the division machinery."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from idealfam import (
    IdealPresentation,
    MonomialOrder,
    PolynomialRing,
    PrimeField,
    VariableTable,
)

P = 32003


def fresh_interpreter(*args):
    """Run ``python *args`` on the checkout's ``src`` with no bytecode cache.

    As on a host with PYTHONDONTWRITEBYTECODE=1, the process compiles every
    module it loads from source.  Raises when the process fails.
    """
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def small_ring(names=("x", "y"), p=P, order="grevlex"):
    return PolynomialRing(VariableTable.named(names), PrimeField(p), MonomialOrder(order))


def monomials_of_degree(nvars, degree):
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def random_poly(ring, rng, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        d = rng.randrange(0, max_degree + 1)
        exps = random.Random(rng.random()).choice(monomials_of_degree(ring.nvars, d)) if d else (0,) * ring.nvars
        terms[exps] = terms.get(exps, 0) + rng.randrange(1, P)
    return ring.poly(terms)


def random_homogeneous(ring, rng, degree, max_terms=4):
    """A nonzero form: coefficients from [1, p) over F_p, from [1, 32003) over QQ."""
    high = ring.field.p if isinstance(ring.field, PrimeField) else P
    monos = monomials_of_degree(ring.nvars, degree)
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        terms[rng.choice(monos)] = rng.randrange(1, high)
    return ring.poly(terms)


def span_membership(p, ideal):
    """Degree-e membership by row reduction of the multiplied generators.

    p lies in the ideal in degree e iff it is a linear combination of
    {m * g : g a generator, m a monomial, deg(m * g) = e}.
    """
    e = p.homogeneous_degree()
    assert isinstance(e, int)
    ring = ideal.ring
    prime = ring.field.p
    key = ring.order.key

    pivots = {}

    def reduce_row(row):
        row = dict(row)
        while row:
            lead = max(row, key=key)
            piv = pivots.get(lead)
            if piv is None:
                return row, lead
            c = row[lead]
            for e2, c2 in piv.items():
                v = (row.get(e2, 0) - c * c2) % prime
                if v:
                    row[e2] = v
                else:
                    row.pop(e2, None)
        return row, None

    for g in ideal.generators:
        dg = g.homogeneous_degree()
        if dg > e:
            continue
        for mono in monomials_of_degree(ring.nvars, e - dg):
            row = {
                tuple(a + b for a, b in zip(mono, exps)): c for exps, c in g.terms
            }
            r, lead = reduce_row(row)
            if lead is not None:
                inv = pow(r[lead], prime - 2, prime)
                pivots[lead] = {k: v * inv % prime for k, v in r.items()}
    r, lead = reduce_row(dict(p.terms))
    return lead is None


@pytest.fixture
def rng():
    return random.Random(20240801)
