"""The artifact bytes must not depend on how the interpreter's `sum` adds floats.

From Python 3.12 the builtin `sum` adds floats with Neumaier's compensation,
so a float total that reaches an artifact is added left to right with `+=`.
This test puts a 3.12-style `sum` into every `interoai` module and requires
the golden digests, so it needs no second interpreter.
"""

import math
import sys

import test_golden
from interoai import blanket
from oracles import two_cell_joint

_NOTHING = object()


def compensated_sum(iterable, /, start=0):
    """`sum` as CPython 3.12 adds: ints exactly, then floats with Neumaier's
    compensation (an int among them added plainly), then anything else by `+`."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        comp = 0.0
        rest = _NOTHING
        for item in items:
            if type(item) is float:
                t = total + item
                comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                rest = item
                break
        if comp and math.isfinite(comp):
            total += comp
        if rest is _NOTHING:
            return total
        total = total + rest
    for item in items:
        total = total + item
    return total


def test_compensated_sum_differs_from_the_left_to_right_sum():
    values = [1.0, 1e100, 1.0, -1e100]
    assert sum(values) == 0.0
    assert compensated_sum(values) == 2.0
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2, 3])) is int
    assert compensated_sum([0.1] * 10) == 1.0 != sum([0.1] * 10)


def test_artifact_bytes_match_golden_digests_under_a_compensated_sum(tmp_path, monkeypatch):
    modules = {name: m for name, m in sys.modules.items() if name == "interoai" or name.startswith("interoai.")}
    assert {"interoai.agents", "interoai.harness.metrics", "interoai.harness.runner"} <= modules.keys()
    for module in modules.values():
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    test_golden.test_artifact_bytes_match_golden_digests(tmp_path)


def test_cmi_from_counts_bits_do_not_depend_on_the_interpreters_sum(monkeypatch):
    # A float-weighted table's total is added left to right, as the 3.11 builtin adds it.
    joint = two_cell_joint(0.3)
    plain = blanket.cmi_from_counts(joint)
    monkeypatch.setattr(blanket, "sum", compensated_sum, raising=False)
    assert blanket.cmi_from_counts(joint).hex() == plain.hex() == "0x1.c859d96cb7ea7p-5"
