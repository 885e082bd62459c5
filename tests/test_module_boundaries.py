"""No module under ``src/mdpp/`` imports or reads another mdpp module's
single-underscore name. ``bruteforce.py`` is exempt: its oracles check the
fast paths' internals."""

import ast
from pathlib import Path

import mdpp

PACKAGE = Path(mdpp.__file__).parent
EXEMPT = {"bruteforce.py"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _mdpp_module(node: ast.ImportFrom):
    """The mdpp module a ``from ... import`` reads from: "" for the package
    itself, None when it is not mdpp."""
    if node.level:
        return node.module or ""
    if node.module == "mdpp" or (node.module or "").startswith("mdpp."):
        return node.module[len("mdpp."):]
    return None


def private_reaches(path: Path) -> list[tuple[int, str]]:
    """(line, dotted name) for each import or attribute read of another mdpp
    module's single-underscore name in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()  # local names bound to mdpp modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _mdpp_module(node) == "":
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name == "mdpp" or a.name.startswith("mdpp."))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _mdpp_module(node)
            if source is not None:
                found += [(node.lineno, f"{source}.{a.name}".lstrip("."))
                          for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(found)


def test_no_module_reaches_into_another_modules_private_names():
    offences = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT
        for line, name in private_reaches(path)
    ]
    assert offences == []


def test_the_check_sees_imports_and_attribute_reads(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import summarizer\n"
        "import mdpp.kts as k\n"
        "from .kts import kts, _BLOCK\n"
        "from mdpp.encoder import _lstm_forward\n"
        "summarizer._view_shot_list\n"
        "k._dp_tables\n"
        "summarizer.segment_views\n"
        "summarizer.__name__\n"
        "_local = 1\n"
    )
    assert private_reaches(source) == [
        (3, "kts._BLOCK"),
        (4, "encoder._lstm_forward"),
        (5, "summarizer._view_shot_list"),
        (6, "k._dp_tables"),
    ]
