"""Exact sparse multivariate polynomial arithmetic.

Coefficients live in a prime field or in QQ, monomials are exponent tuples
over a fixed ordered variable table, and every value is immutable after
construction, so objects can be shared freely across threads.

Each job on these objects is done in one place: ``_exponents`` checks an
exponent tuple, ``_collect`` adds like terms, drops zeros and sorts into
the ring order, ``_term_text`` and ``_signed_sum`` print terms,
``_integers`` refuses an entry that is not an int, and ``_matrix_rows``,
``_colmajor`` and ``_format_rows`` check, order and print the integer
matrices that index y variables.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    ArithmeticOverflowError,
    DomainMismatchError,
    NotDivisibleError,
    ParseError,
    ValidationError,
)

# Exponents are kept below this bound so sums always fit a machine word.
EXPONENT_CAP = 1 << 62

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    # Deterministic Miller-Rabin for word-sized integers.
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers modulo an odd word-sized prime.

    Elements are plain ints in ``[0, p)``.
    """

    __slots__ = ("p",)

    is_prime_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or p <= 2 or p >= EXPONENT_CAP or not _is_prime(p):
            raise ValidationError(f"modulus must be an odd prime below 2^62, got {p!r}")
        self.p = p

    def convert(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise DomainMismatchError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Exact rationals; elements are ``fractions.Fraction`` values.

    ``Fraction`` keeps values in lowest terms with positive denominator.
    """

    __slots__ = ()

    is_prime_field = False
    zero = Fraction(0)
    one = Fraction(1)

    def convert(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise DomainMismatchError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


_INT = frozenset((int,))


def _integers(values, what):
    """``values`` as a tuple of ints; a float, str or bool entry is refused,
    not truncated or parsed."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValidationError(f"{what} must be integers, got {v!r}")
    return values


def _matrix_rows(rows):
    """Row tuples of a rectangular matrix of nonnegative integers."""
    rows = tuple(_integers(row, "matrix entries") for row in rows)
    if any(e < 0 for row in rows for e in row):
        raise ValidationError("matrix entries must be nonnegative")
    if rows and len({len(r) for r in rows}) != 1:
        raise ValidationError("matrix rows must have equal length")
    return rows


def _colmajor(rows):
    # Column-major flattening; also the deterministic sort key for y-variables.
    if not rows:
        return ()
    return tuple(rows[j][k] for k in range(len(rows[0])) for j in range(len(rows)))


def _format_rows(rows):
    """``[[a,b],[c,d]]``: an ExponentMatrix's text and the bracket part of a y name."""
    return "[" + ",".join("[" + ",".join(str(e) for e in row) + "]" for row in rows) + "]"


class VariableTable:
    """Fixed, totally ordered list of ring variables.

    Three descriptor kinds exist:

    * ``("x", j, k)`` -- grid variable displayed ``x[j,k]``;
    * ``("y", rows)`` -- variable indexed by an integer matrix (a tuple of
      row tuples), displayed ``y[[...],[...]]``;
    * ``("v", name)`` -- free-form named variable.

    Grid tables put every x before every y, x's sorted by ``(k, j)`` and
    y's sorted by the column-major flattening of their matrices.  Named
    variables cannot be mixed with the grid kinds.
    """

    __slots__ = ("descriptors", "names", "_index")

    def __init__(self, descriptors):
        descs = []
        for d in descriptors:
            kind = d[0]
            if kind == "x":
                _, j, k = d
                descs.append(("x", *_integers((j, k), "grid indices")))
            elif kind == "y":
                descs.append(("y", _matrix_rows(d[1])))
            elif kind == "v":
                descs.append(("v", str(d[1])))
            else:
                raise ValidationError(f"unknown variable descriptor {d!r}")
        self.descriptors = tuple(descs)
        self.names = tuple(self._name(d) for d in self.descriptors)
        if len(set(self.names)) != len(self.names):
            raise ValidationError("variable names must be unique")
        kinds = {d[0] for d in self.descriptors}
        if "v" in kinds and kinds != {"v"}:
            raise ValidationError("named variables cannot be mixed with grid variables")
        if "x" in kinds or "y" in kinds:
            xs = [d for d in self.descriptors if d[0] == "x"]
            ys = [d for d in self.descriptors if d[0] == "y"]
            if self.descriptors != tuple(xs) + tuple(ys):
                raise ValidationError("x variables must precede y variables")
            if xs != sorted(xs, key=lambda d: (d[2], d[1])):
                raise ValidationError("x variables must be sorted by (k, j)")
            ykeys = [_colmajor(d[1]) for d in ys]
            if ykeys != sorted(ykeys):
                raise ValidationError("y variables must be sorted by their entry list")
        self._index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def _trusted(cls, descriptors, names):
        """A table of canonical descriptors, listed in table order, and their
        names, taken as given: the caller builds them correct, so none of
        the checks of ``__init__`` is run again."""
        table = object.__new__(cls)
        table.descriptors, table.names = tuple(descriptors), tuple(names)
        table._index = dict(zip(table.names, range(len(table.names))))
        return table

    @staticmethod
    def _name(desc):
        if desc[0] == "x":
            return f"x[{desc[1]},{desc[2]}]"
        if desc[0] == "y":
            return f"y{_format_rows(desc[1])}"
        return desc[1]

    @classmethod
    def named(cls, names):
        return cls(("v", n) for n in names)

    def __len__(self):
        return len(self.descriptors)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def x_index(self, j: int, k: int) -> int:
        return self.index(f"x[{j},{k}]")

    def y_index(self, rows) -> int:
        return self.index(self._name(("y", _matrix_rows(rows))))

    def __eq__(self, other):
        return isinstance(other, VariableTable) and other.descriptors == self.descriptors

    def __hash__(self):
        return hash(self.descriptors)

    def __repr__(self):
        return f"VariableTable({', '.join(self.names)})"


_ORDER_KINDS = ("grevlex", "grlex", "lex")


class MonomialOrder:
    """Multiplicative total order on exponent tuples.

    ``grevlex`` and ``grlex`` refine total degree; ``lex`` does not.  An
    optional permutation reorders variables before comparison: entry ``i``
    of the permutation is the table index compared at position ``i``.
    """

    __slots__ = ("kind", "perm")

    def __init__(self, kind: str = "grevlex", perm=None):
        if kind not in _ORDER_KINDS:
            raise ValidationError(f"unknown monomial order {kind!r}")
        self.kind = kind
        if perm is not None:
            perm = _integers(perm, "order permutation entries")
            if sorted(perm) != list(range(len(perm))):
                raise ValidationError("order permutation must permute 0..n-1")
        self.perm = perm

    def _arrange(self, exps):
        if self.perm is None:
            return exps
        return tuple(exps[i] for i in self.perm)

    def key(self, exps):
        """Sort key; larger key means larger monomial."""
        e = self._arrange(exps)
        if self.kind == "lex":
            return e
        if self.kind == "grlex":
            return (sum(e), e)
        return (sum(e), tuple(-x for x in reversed(e)))

    def heapkey(self, exps):
        """Inverted key for min-heaps; smaller key means larger monomial."""
        e = self._arrange(exps)
        if self.kind == "lex":
            return tuple(-x for x in e)
        if self.kind == "grlex":
            return (-sum(e), tuple(-x for x in e))
        return (-sum(e), e[::-1] if type(e) is tuple else tuple(reversed(e)))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.perm == self.perm
        )

    def __hash__(self):
        return hash((self.kind, self.perm))

    def __repr__(self):
        if self.perm is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, perm={self.perm})"


def _exponents(exps, n):
    """The exponents as an int tuple, checked for length ``n``, sign and the
    cap; a float, str or bool entry is refused, as by `_integers`."""
    exps = tuple(exps)
    if not _INT.issuperset(map(type, exps)):
        _integers(exps, "exponents")  # refuses the first entry not an int
    if len(exps) != n:
        raise ValidationError(f"expected {n} exponents, got {len(exps)}")
    if exps and min(exps) < 0:
        raise ValidationError("exponents must be nonnegative")
    if exps and max(exps) >= EXPONENT_CAP:
        raise ArithmeticOverflowError("exponent exceeds the machine-word guard")
    return exps


class Monomial:
    """A product of variable powers over a fixed table."""

    __slots__ = ("table", "exps", "degree")

    def __init__(self, table: VariableTable, exps):
        exps = _exponents(exps, len(table))
        self.table = table
        self.exps = exps
        self.degree = sum(exps)

    @classmethod
    def one(cls, table):
        return cls(table, (0,) * len(table))

    def _check(self, other):
        if not isinstance(other, Monomial):
            raise DomainMismatchError(f"expected a Monomial, got {other!r}")
        if other.table != self.table:
            raise DomainMismatchError("monomials live over different variable tables")

    def __mul__(self, other):
        self._check(other)
        return Monomial(self.table, (a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other) -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other):
        """Exact quotient self / other; raises when not divisible."""
        self._check(other)
        if not other.divides(self):
            raise NotDivisibleError(f"{other} does not divide {self}")
        return Monomial(self.table, (a - b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and other.table == self.table
            and other.exps == self.exps
        )

    def __hash__(self):
        return hash(self.exps)

    def __str__(self):
        return format_monomial(self.table.names, self.exps)

    def __repr__(self):
        return f"Monomial({self})"


def format_monomial(names, exps) -> str:
    """``x^2*y`` over the variable names; ``1`` for the empty product."""
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _term_text(c, mono: str) -> str:
    """One term: the coefficient alone at ``1``, the monomial alone at ``c == 1``."""
    if mono == "1":
        return str(c)
    if c == 1:
        return mono
    return f"{c}*{mono}"


def _signed_sum(parts) -> str:
    """Join ``(negative, text)`` pairs as ``a - b + c``; ``0`` when empty."""
    if not parts:
        return "0"
    text = "".join((" - " if neg else " + ") + t for neg, t in parts)
    return ("-" if parts[0][0] else "") + text[3:]


def _collect(ring, pairs) -> "Polynomial":
    """The polynomial of ``(exps, coeff)`` pairs: like terms added, zeros dropped,
    terms sorted descending in the ring order."""
    add = ring.field.add
    acc = {}
    for e, c in pairs:
        acc[e] = add(acc[e], c) if e in acc else c
    zero = ring.field.zero
    ordered = sorted((e for e, c in acc.items() if c != zero), key=ring.order.key, reverse=True)
    return Polynomial(ring, tuple((e, acc[e]) for e in ordered))


class PolynomialRing:
    """A variable table, a coefficient field, and a monomial order."""

    __slots__ = ("table", "field", "order")

    def __init__(self, table: VariableTable, field, order: MonomialOrder | str | None = None):
        if order is None:
            order = MonomialOrder("grevlex")
        elif isinstance(order, str):
            order = MonomialOrder(order)
        if order.perm is not None and len(order.perm) != len(table):
            raise ValidationError("order permutation length must match the table")
        self.table = table
        self.field = field
        self.order = order

    @property
    def nvars(self) -> int:
        return len(self.table)

    def with_order(self, order) -> "PolynomialRing":
        return PolynomialRing(self.table, self.field, order)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        c = self.field.convert(c)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def variable(self, ref) -> "Polynomial":
        i = ref if isinstance(ref, int) else self.table.index(ref)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, ((tuple(exps), self.field.one),))

    def monomial(self, exps) -> Monomial:
        if isinstance(exps, Monomial):
            if exps.table != self.table:
                raise DomainMismatchError("monomial from a different table")
            return exps
        return Monomial(self.table, exps)

    def from_monomial(self, mono, coeff=1) -> "Polynomial":
        mono = self.monomial(mono)
        return self.poly({mono.exps: coeff})

    def poly(self, terms) -> "Polynomial":
        """Build a polynomial from ``{exps: coeff}`` or an iterable of pairs."""
        items = terms.items() if hasattr(terms, "items") else terms
        n, convert = self.nvars, self.field.convert
        return _collect(self, (
            (_exponents(e.exps if isinstance(e, Monomial) else e, n), convert(c))
            for e, c in items
        ))

    def parse(self, text: str) -> "Polynomial":
        return _collect(self, _parse_terms(text, self))

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.table == self.table
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.table, self.field, self.order))

    def __repr__(self):
        return f"PolynomialRing({self.field!r}, {len(self.table)} vars, {self.order.kind})"


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending in the ring order.

    The zero polynomial is the empty term tuple.  Construct through
    :meth:`PolynomialRing.poly` or ring arithmetic; the raw constructor
    trusts its input.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms):
        self.ring = ring
        self.terms = tuple(terms)

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise DomainMismatchError(f"expected a Polynomial, got {other!r}")
        if other.ring != self.ring:
            raise DomainMismatchError("polynomials live in different rings")

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        self._check(other)
        return _collect(self.ring, self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((e, neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        mul = self.ring.field.mul
        out = _collect(self.ring, (
            (tuple(a + b for a, b in zip(e1, e2)), mul(c1, c2))
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        ))
        if any(x >= EXPONENT_CAP for e, _ in out.terms for x in e):
            raise ArithmeticOverflowError("exponent overflow in product")
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValidationError("negative powers are not defined")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        c = field.convert(c)
        if c == field.zero:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((e, field.mul(cc, c)) for e, cc in self.terms))

    @property
    def lm(self) -> Monomial | None:
        """Leading monomial, or None for the zero polynomial."""
        if not self.terms:
            return None
        return Monomial(self.ring.table, self.terms[0][0])

    def degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(e) for e, _ in self.terms)

    def homogeneous_degree(self):
        """Common total degree of all terms; ``"any"`` for 0; None otherwise."""
        if not self.terms:
            return "any"
        degs = {sum(e) for e, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def coefficient(self, mono):
        exps = mono.exps if isinstance(mono, Monomial) else tuple(mono)
        return dict(self.terms).get(exps, self.ring.field.zero)

    def monomials(self):
        return tuple(Monomial(self.ring.table, e) for e, _ in self.terms)

    def substitute_signs(self, signs) -> "Polynomial":
        """Replace each variable v by ``signs[v] * v``; signs must cover the support."""
        table = self.ring.table
        sign_by_index = {}
        for key, s in signs.items():
            i = key if isinstance(key, int) else table.index(key)
            if s not in (1, -1):
                raise ValidationError("signs must be +1 or -1")
            sign_by_index[i] = s
        support = set()
        for e, _ in self.terms:
            support.update(i for i, x in enumerate(e) if x)
        missing = support - set(sign_by_index)
        if missing:
            names = ", ".join(table.names[i] for i in sorted(missing))
            raise ValidationError(f"signs missing for variables in support: {names}")
        field = self.ring.field
        out = []
        for e, c in self.terms:
            flip = sum(e[i] for i, s in sign_by_index.items() if s == -1 and e[i])
            out.append((e, field.neg(c) if flip % 2 else c))
        return Polynomial(self.ring, tuple(out))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        names = self.ring.table.names
        parts = []
        for e, c in self.terms:
            negative = isinstance(c, Fraction) and c < 0
            text = _term_text(-c if negative else c, format_monomial(names, e))
            parts.append((negative, text))
        return _signed_sum(parts)

    def __repr__(self):
        return f"Polynomial({self})"


_NAME_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*(?:\[[0-9,\[\]]*\])?"
_TOKEN_RE = re.compile(
    rf"(?P<name>{_NAME_PATTERN})|(?P<num>\d+)|(?P<op>[-+*/^])|(?P<ws>\s+)|(?P<bad>.)"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in {text!r}")
        tokens.append((kind, m.group()))
    return tokens


def _parse_terms(text, ring):
    """Parse the term grammar into ``(exps, coeff)`` pairs, one per term."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    field = ring.field
    terms = []
    pos = 0
    n = len(tokens)
    first = True
    while pos < n:
        sign = 1
        if tokens[pos][0] == "op" and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise ParseError(f"expected + or - at token {tokens[pos][1]!r}")
        first = False
        coeff = field.one
        exps = [0] * ring.nvars
        saw_factor = False
        while True:
            if pos >= n:
                break
            kind, val = tokens[pos]
            if kind == "num":
                num = int(val)
                pos += 1
                if pos + 1 < n and tokens[pos] == ("op", "/") and tokens[pos + 1][0] == "num":
                    den = int(tokens[pos + 1][1])
                    pos += 2
                    coeff = field.mul(coeff, field.convert(Fraction(num, den)))
                else:
                    coeff = field.mul(coeff, field.convert(num))
            elif kind == "name":
                try:
                    idx = ring.table.index(val)
                except ValidationError:
                    raise ParseError(f"unknown variable {val!r}") from None
                power = 1
                pos += 1
                if pos < n and tokens[pos] == ("op", "^"):
                    if pos + 1 >= n or tokens[pos + 1][0] != "num":
                        raise ParseError("expected an integer exponent after ^")
                    power = int(tokens[pos + 1][1])
                    pos += 2
                exps[idx] += power
            else:
                raise ParseError(f"unexpected token {val!r}")
            saw_factor = True
            if pos < n and tokens[pos] == ("op", "*"):
                pos += 1
                continue
            break
        if not saw_factor:
            raise ParseError("empty term")
        if sign < 0:
            coeff = field.neg(coeff)
        terms.append((tuple(exps), coeff))
    return terms
