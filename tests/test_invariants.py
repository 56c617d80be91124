"""Every raise of InvariantError in src/qrsums can fire.

The sites are found in the source by its syntax tree, each named by its
module, its function and its message with every formatted value read as {}.
Each site has a row here whose fault trips it, and the message must match
that site's template, so a row cannot pass on another site's raise.  A raise
that no fault can reach guards nothing, and a new raise comes with its row.
"""

import ast
import math
import re
from pathlib import Path

import pytest

from qrsums import InvariantError, OddPrime, residue_profile
from qrsums import analytic, classnum, scan, sums
from qrsums import verify as verify_mod

SRC = Path(classnum.__file__).parent


def _template(message):
    if isinstance(message, ast.Constant):
        return message.value
    assert isinstance(message, ast.JoinedStr), ast.dump(message)
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in message.values)


def _enclosing(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return node.name
    return "<module>"


def raise_sites():
    """(module.function, message template) of every raise InvariantError(...)."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(name, ast.Name) and name.id == "InvariantError":
                assert isinstance(exc, ast.Call) and len(exc.args) == 1, ast.unparse(node)
                sites.append((f"{path.stem}.{_enclosing(node, parents)}", _template(exc.args[0])))
    return sites


def gap_plus_one(p):
    prof = residue_profile(p)
    return prof._replace(q_o=prof.q_o + 1)


def c_exact_gap(monkeypatch):
    p = OddPrime(11)
    sums.c_exact(p, gap_plus_one(p))


def h_from_residues_gap(monkeypatch):
    # called directly: inside check_record, c_exact raises on this gap first
    p = OddPrime(11)
    classnum.h_from_residues(p, gap_plus_one(p))


def h_from_residues_sign(monkeypatch):
    p = OddPrime(7)
    prof = residue_profile(p)
    classnum.h_from_residues(p, prof._replace(q_e=prof.q_o))


def imprimitive(monkeypatch):
    monkeypatch.setattr(classnum, "gcd", lambda *args: 2)
    classnum.reduced_forms(OddPrime(23))


def beyond_a_bound(monkeypatch):
    # one below the true bound leaves the a = 2 forms of p = 23 to the probe
    monkeypatch.setattr(classnum, "isqrt", lambda n: math.isqrt(n) - 1)
    classnum.reduced_forms(OddPrime(23))


def gauss_walk_repeats(monkeypatch):
    # 2 has order 3 mod 7: its powers 1, 2, 4 come back to 1 and miss 3, 5, 6
    monkeypatch.setattr(analytic, "primitive_root", lambda p: 2)
    analytic.gauss_sum_checks(OddPrime(7))


def record_check_fails(monkeypatch):
    monkeypatch.setattr(verify_mod, "t_from_m", lambda p, prof: 0)
    scan.prime_record(OddPrime(23))


RAISES = {
    ("sums.c_exact", "T(p) = {} not divisible by 3 at p={}"): c_exact_gap,
    ("classnum.h_from_residues", "residue gap {} not divisible by 3 at p={}"): h_from_residues_gap,
    ("classnum.h_from_residues", "nonpositive class number {} at p={}"): h_from_residues_sign,
    ("classnum._forms_with_leading", "imprimitive form ({}, {}, {}) for p={}"): imprimitive,
    ("classnum.reduced_forms", "form found beyond the a-bound at p={}"): beyond_a_bound,
    ("analytic.gauss_sum_checks", "powers of {} mod {} repeat k = {} before covering [1, p-1]"):
        gauss_walk_repeats,
    ("scan.prime_record", "{}: expected {}, got {} at p={}"): record_check_fails,
}


def test_every_raise_has_a_row():
    sites = raise_sites()
    assert len(sites) == len(set(sites)), sites
    assert set(sites) == set(RAISES)


@pytest.mark.parametrize("site", RAISES, ids=[fault.__name__ for fault in RAISES.values()])
def test_each_raise_fires_under_its_fault(monkeypatch, site):
    pattern = ".+".join(map(re.escape, site[1].split("{}")))
    with pytest.raises(InvariantError, match=f"^{pattern}$"):
        RAISES[site](monkeypatch)
