"""The package's public surface: every exported name, whether its layer
loads at import or on first use."""

import ast
import json
from pathlib import Path

import pytest

import idealfam

from conftest import fresh_interpreter

# The package's export list, by defining module.  It is written out here
# rather than read from the package, so that no name can drop out of the
# lazily loaded part unnoticed.
EXPORTS = {
    "errors": [
        "ArithmeticOverflowError",
        "DomainMismatchError",
        "IdealfamError",
        "InternalError",
        "NotDivisibleError",
        "ParseError",
        "ResourceLimitError",
        "ValidationError",
    ],
    "ring": [
        "Monomial",
        "MonomialOrder",
        "Polynomial",
        "PolynomialRing",
        "PrimeField",
        "QQ",
        "RationalField",
        "VariableTable",
    ],
    "groebner": [
        "GroebnerBasis",
        "HilbertNumerator",
        "IdealPresentation",
        "buchberger",
        "hilbert_numerator",
        "is_member",
        "normal_form",
        "s_polynomial",
    ],
    "family": [
        "DEFAULT_PRIME",
        "DerivedConstants",
        "ExponentMatrix",
        "FamilyParams",
        "LemmaReport",
        "SocleReport",
        "SubfamilyMatch",
        "build_ideal",
        "caviglia_ideal",
        "caviglia_witness",
        "derived_constants",
        "enumerate_A",
        "family_table",
        "identify_subfamily",
        "lemma_targets",
        "mccullough_ideal",
        "mccullough_witness",
        "pd_formula",
        "preset_many_generators",
        "preset_three_generators",
        "socle_witness",
        "stage_count",
        "variable_count",
        "verification_basis",
        "verification_degree",
        "verify_lemma",
        "verify_socle",
        "verify_socle_ideal",
    ],
    "resolution": [
        "BettiTable",
        "FreeResolution",
        "GradedFreeModule",
        "PresentationMatrix",
        "hilbert_crosscheck",
        "minimal_free_resolution",
        "pd_of",
        "reg_of",
        "resolve",
        "schreyer_resolution",
    ],
}


_SURFACE = """
import importlib, json, sys
import idealfam
exports = json.loads(sys.argv[1])
listed = set(dir(idealfam))
print(sorted(n for names in exports.values() for n in names if n not in listed))
print(sorted(set(exports) - listed))
print('idealfam.resolution' in sys.modules)
# Through the package first, so that the lazy names bind by its hook.
got = {n: getattr(idealfam, n) for names in exports.values() for n in names}
print(sorted(
    n for module, names in exports.items() for n in names
    if got[n] is not getattr(importlib.import_module('idealfam.' + module), n)
))
# Bound in the package's namespace, so that the hook runs no second time.
print(sorted(set(exports['resolution']) - set(vars(idealfam))))
"""


def test_every_export_is_its_defining_modules_object():
    out = fresh_interpreter("-c", _SURFACE, json.dumps(EXPORTS)).stdout.splitlines()
    # dir() lists every export and every layer before the resolution layer
    # loads, each name is the object its module defines, and the first
    # lookup binds the resolution names in the package.
    assert out == ["[]", "[]", "False", "[]", "[]"]


@pytest.mark.parametrize(
    "code",
    [
        "from idealfam import schreyer_resolution\n"
        "import idealfam.resolution as r\n"
        "print(schreyer_resolution is r.schreyer_resolution)",
        "import sys, idealfam\n"
        "r = idealfam.resolution\n"
        "print(r is sys.modules['idealfam.resolution'] and r.resolve is idealfam.resolve)",
        "from idealfam import *\n"
        "import idealfam.resolution as r\n"
        "print(BettiTable is r.BettiTable and resolution is r)",
    ],
    ids=["from-import", "submodule-attribute", "star-import"],
)
def test_resolution_names_bind_on_first_use(code):
    assert fresh_interpreter("-c", code).stdout.splitlines() == ["True"]


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'idealfam' has no attribute 'no_such_name'$"):
        idealfam.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from idealfam import no_such_name  # noqa: F401


def test_source_lines_fit_in_100_columns():
    src = Path(idealfam.__file__).parent
    long = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > 100
    ]
    assert long == []


def test_every_source_import_is_used():
    # A name a module imports and never reads, left over when its last
    # caller went.  The package's own imports are its re-exports.
    src = Path(idealfam.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exempt = set(idealfam.__all__) if path.name == "__init__.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name not in used and name not in exempt
            ]
    assert unused == []
