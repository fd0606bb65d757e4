"""Every name a package module imports is used there.

No linter runs on this tree, so this stands in for pyflakes' F401 with `ast`
alone.  A name on a `# noqa: F401` import is exempt only while it is one that
`bench/bench_trace.py` replaces in that module: an import kept for nothing
else is a wrapper nobody needs.
"""

import ast
import importlib
from pathlib import Path

import interoai
from test_tracer_lookups import _load_bench_trace

PACKAGE = Path(interoai.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
            yield ".".join(parts), path


def _unused_imports(path: Path) -> tuple[list[str], list[str]]:
    """The names `path` imports and never reads: those on no `# noqa: F401`
    import statement, and those on one."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported: dict[str, bool] = {}  # name -> its statement carries `noqa: F401`
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            exempt = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = exempt
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported if name not in read]
    return [n for n in unused if not imported[n]], [n for n in unused if imported[n]]


def test_every_imported_name_is_used_or_exempt():
    unused = {module: names for module, path in _modules() if (names := _unused_imports(path)[0])}
    assert unused == {}


def test_each_exempt_unused_name_is_one_the_tracer_replaces():
    exempt = [
        (f"{module}.{name}", importlib.import_module(module), name)
        for module, path in _modules()
        for name in _unused_imports(path)[1]
    ]
    before = [getattr(owner, name) for _, owner, name in exempt]
    bench_trace = _load_bench_trace()
    uninstall = bench_trace.install(bench_trace.SpanRecorder())
    try:
        after = [getattr(owner, name) for _, owner, name in exempt]
    finally:
        uninstall()
    assert [label for (label, _, _), old, new in zip(exempt, before, after) if old is new] == []
    assert [getattr(owner, name) for _, owner, name in exempt] == before  # uninstalled again
