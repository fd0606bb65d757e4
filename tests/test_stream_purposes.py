"""Each stream purpose the package names is named at one call site.

A stream is keyed by its seed and the crc32 of its purpose alone, so two
call sites that pass one purpose, or two purposes whose tags collide, draw
the same numbers from one seed.  Checked with `ast` alone: every string
literal that a package module passes as a purpose to `stream`, `BlockStream`
or `rollout` is collected with its call site.
"""

import ast
import zlib
from collections import defaultdict
from pathlib import Path

import interoai

PACKAGE = Path(interoai.__file__).resolve().parent

# The purpose parameters of each call, by position and by keyword.
PURPOSE_ARGS = {
    "stream": {1: "purpose"},
    "BlockStream": {1: "purpose"},
    "rollout": {3: "policy_purpose", 4: "env_purpose"},
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _purpose_literals() -> dict[str, list[str]]:
    """Each purpose literal -> the `path:line` of every call that passes it."""
    sites = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in ast.walk(tree):
            params = PURPOSE_ARGS.get(_called_name(call)) if isinstance(call, ast.Call) else None
            if params is None:
                continue
            args = [arg for i, arg in enumerate(call.args) if i in params]
            args += [kw.value for kw in call.keywords if kw.arg in params.values()]
            for arg in args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    sites[arg.value].append(f"{path.relative_to(PACKAGE)}:{call.lineno}")
    return dict(sites)


def test_the_package_names_its_stream_purposes():
    assert set(_purpose_literals()) == {
        "agent",
        "env",
        "probe",
        "blanket-policy",
        "blanket-env",
        "env-reset",
        "jacobian-probe",
    }


def test_each_purpose_is_named_at_exactly_one_call_site():
    shared = {purpose: where for purpose, where in _purpose_literals().items() if len(where) != 1}
    assert shared == {}


def test_purpose_tags_are_pairwise_distinct():
    tags = defaultdict(list)
    for purpose in _purpose_literals():
        tags[zlib.crc32(purpose.encode("utf-8"))].append(purpose)
    assert [names for names in tags.values() if len(names) > 1] == []
