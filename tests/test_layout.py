"""The library holds no test-only helpers: every module-level function and
class of ``src/degex`` is used by the library itself, traced by the
benchmark, or documented in the README.  Its import stays cheap: no module
of the library pulls in ``dataclasses`` or ``inspect``."""
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "degex"


def unreferenced_names() -> list[str]:
    """``module.name`` of every module-level def or class in src/degex whose
    name no other top-level statement of src/degex uses."""
    defined = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((stmt.name, f"{path.stem}.{stmt.name}"))
            # a def's own body (recursion) is no caller of it
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(qualified for name, qualified in defined if name not in used)


def traced_names() -> set[str]:
    """``module.name`` of every (module, name) pair in the benchmark's
    trace targets."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    return {
        f"{node.elts[0].value.removeprefix('degex.')}.{node.elts[1].value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) >= 2
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2])
        and node.elts[0].value.startswith("degex.")
    }


def test_every_library_name_without_a_library_caller_is_traced_or_documented():
    readme = (ROOT / "README.md").read_text()
    traced = traced_names()
    unreferenced = unreferenced_names()
    assert [
        name for name in unreferenced if name not in traced and f"degex.{name}" not in readme
    ] == []
    # the two public entry points the library itself never calls
    assert unreferenced == ["complexes.boundary_matrix", "complexes.from_json"]
    assert "complexes.boundary_matrix" in traced
    assert "degex.complexes.from_json" in readme


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S: no site module, whose .pth files may import either one first
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import degex.cli, degex.projectivity; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
