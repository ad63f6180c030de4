"""The two tests over the table of brute-force references (reference.py)."""

import ast
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from spinsearch import sequences

from reference import TABLE, Forbidden, agreement, assert_agree, check_agreement, patch_forbidden

# the rows whose comparison had no test of its own before the table
test_agreement = agreement("conjugate_multi_selective", "spectrum")


@pytest.mark.parametrize("name", sorted(name for name, row in TABLE.items() if row.forbidden))
def test_independence(monkeypatch, name):
    row = TABLE[name]
    cases = row.guard_cases()
    expected = [row.fast(*case) for case in cases]
    bindings = patch_forbidden(monkeypatch, row.forbidden)
    for owner, attr in bindings:  # the patch is live at every binding
        with pytest.raises(Forbidden):
            getattr(owner, attr)()
    for case, want in zip(cases, expected):
        assert_agree(row.fast(*case), want, 0)


def test_every_row_is_bound_once():
    bound = Counter()
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "agreement":
                bound.update(arg.value for arg in node.args)
    assert bound == Counter(dict.fromkeys(TABLE, 1))


def missing(*args, **kwargs):
    return sequences.grover_conjugate_renamed(*args, **kwargs)


@pytest.mark.parametrize("role", ["forbidden", "fast", "reference"])
def test_a_row_naming_a_missing_function_fails(monkeypatch, role):
    row = TABLE["grover_conjugate"]
    if role == "forbidden":
        original = sequences.grover_coefficients
        with pytest.raises(LookupError, match="resolves nowhere"):
            patch_forbidden(monkeypatch, row.forbidden + ("grover_core_renamed",))
        assert sequences.grover_coefficients is original  # nothing was patched
    else:
        with pytest.raises(AttributeError, match="grover_conjugate_renamed"):
            check_agreement(replace(row, **{role: missing}), 1)
