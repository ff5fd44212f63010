"""The package as a reader meets it: the README's library example runs as
written, every module's exports and imports are live, and every function
the benchmark's tracer times by name exists."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import thetamap

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(Path(thetamap.__file__).parent.glob("*.py"))


def _quickstart() -> str:
    """The python block under the README's "Library quickstart" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs_as_written(capsys):
    code = _quickstart()
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    doc = ns["doc"]
    assert (doc["q"], doc["S_size"], doc["T_size"], doc["K"],
            doc["E_count"]) == (64, 14, 18, -9, 56)
    # the figures the README states beside the call are the report's
    stated = re.search(r"\|S\|=(\d+), \|T\|=(\d+), K=(-?\d+), \|E\|=(\d+)",
                       code)
    assert tuple(map(int, stated.groups())) == (14, 18, -9, 56)
    assert capsys.readouterr().out.splitlines()[0] == (
        "4 components, 32 leaves")


def _bound_names(node: ast.AST) -> list[str]:
    """The names an import statement binds."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exports_exist_and_imports_are_used(path):
    tree = ast.parse(path.read_text(), str(path))
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(_bound_names(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    exports = next((ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)), [])
    assert sorted(set(exports) - defined) == []

    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for name in _bound_names(node)}
    assert sorted(imported - loaded - set(exports)) == []


def test_every_tracer_target_resolves(tmp_path):
    # perfbench/tracer.py wraps its TARGETS by name, as Tracer.__enter__
    # resolves them here; a renamed one would be skipped, and the metrics
    # of its layer would read 0
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer(str(tmp_path))
    with tracer:
        pass
    assert tracer.missing == []
    assert tracer.leftovers() == []
