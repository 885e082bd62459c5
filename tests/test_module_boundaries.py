"""No module under ``src/mdpp/`` imports or reads another mdpp module's
single-underscore name. ``bruteforce.py`` is exempt: its oracles check the
fast paths' internals.

Only the DPP modules read ``dpp.QUALITY_FLOOR``: it keeps the joint kernel's
log-likelihood finite, and ``multi_dpp`` applies it to the per-view scores
and their product, so no other module decides it.

No module but ``data_model`` reads ``is_integer`` or ``is_real``: the others
check a scalar argument through ``check_int`` and ``check_real``, so the
rule for what counts as an integer or a real, and the message that rejects
one, stays in one place. For the same reason no other module names
``int``, ``float`` or ``str`` in an ``isinstance`` or ``type(...) is``
test: ``io`` hands the values it decodes to the ``data_model`` containers
and checks only a JSON container's kind (``list``, ``dict``).

Only ``runtime`` names ``mallopt``: the process-wide allocator policy has
one owner, which every pipeline calls.

Every public function a module outside ``bruteforce`` defines has a
production caller: another mdpp module outside ``bruteforce`` imports it or
reads it as a module attribute, or its own module names it outside its own
body. The only exceptions are the entry points in ``ENTRY_POINTS``. A
helper that only tests or oracles call belongs in ``bruteforce`` or the
tests."""

import ast
from pathlib import Path

import mdpp

PACKAGE = Path(mdpp.__file__).parent
EXEMPT = {"bruteforce.py"}
FLOOR_READERS = {"dpp.py", "multi_dpp.py", "bruteforce.py"}
SCALAR_TYPE_TESTERS = {"data_model.py", "bruteforce.py"}
SCALAR_TYPES = {"int", "float", "str"}
# public functions that outside callers run, so no module need call them
ENTRY_POINTS = {"cli.main"}  # the ``mdpp`` console script (pyproject.toml)


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


def _floor(name):
    return name == "QUALITY_FLOOR"


def _type_rule(name):
    return name in ("is_integer", "is_real")


def reaches(path: Path, wanted) -> list[tuple[int, str]]:
    """(line, dotted name) for each import or attribute read in ``path`` of
    another mdpp module's name that ``wanted`` accepts."""
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
                          for a in node.names if wanted(a.name)]
        elif isinstance(node, ast.Attribute) and wanted(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(found)


def _names_scalar_type(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_scalar_type(item) for item in node.elts)
    return isinstance(node, ast.Name) and node.id in SCALAR_TYPES


def _is_call(node, *names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def scalar_type_tests(path: Path) -> list[tuple[int, str]]:
    """(line, source) for each ``isinstance``/``issubclass`` call and each
    comparison with a ``type(...)`` call in ``path`` that names int, float
    or str."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if _is_call(node, "isinstance", "issubclass"):
            hit = len(node.args) == 2 and _names_scalar_type(node.args[1])
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = (any(_is_call(o, "type") for o in operands)
                   and any(_names_scalar_type(o) for o in operands))
        else:
            continue
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_reaches_into_another_modules_private_names():
    offences = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT
        for line, name in reaches(path, _private)
    ]
    assert offences == []


def test_only_the_dpp_modules_read_the_quality_floor():
    readers = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in FLOOR_READERS
        for line, name in reaches(path, _floor)
    ]
    assert readers == []


def test_only_data_model_applies_the_scalar_type_rules():
    readers = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT
        for line, name in reaches(path, _type_rule)
    ]
    assert readers == []


def test_only_data_model_tests_for_scalar_types():
    tests = [
        f"{path.name}:{line} {text}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in SCALAR_TYPE_TESTERS
        for line, text in scalar_type_tests(path)
    ]
    assert tests == []


def _names(path: Path) -> set[str]:
    """Every identifier and attribute name ``path``'s code uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def public_functions(path: Path) -> set[str]:
    """module.name for each public top-level function ``path`` defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def references(path: Path) -> set[str]:
    """module.name for each mdpp name ``path``'s code refers to: each name
    a ``from`` import of an mdpp module takes, each attribute read of an
    imported mdpp module, and each of ``path``'s own top-level functions
    named outside its own body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> the mdpp module it is bound to
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _mdpp_module(node) == "":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and _mdpp_module(node):
            found.update(f"{_mdpp_module(node)}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name[len("mdpp."):]) for a in node.names
                           if a.asname and a.name.startswith("mdpp."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for top in tree.body:
        found.update(f"{path.stem}.{node.id}" for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id in own
                     and node.id != getattr(top, "name", None))
    return found


def test_every_public_function_has_a_production_caller():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT]
    defined = set().union(*map(public_functions, sources))
    called = set().union(*map(references, sources))
    assert defined - called - ENTRY_POINTS == set()
    assert ENTRY_POINTS <= defined


def test_the_caller_check_sees_imports_attributes_and_own_names(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import encoder\n"
        "import mdpp.kts as k\n"
        "from .evaluation import frame_f1\n"
        "def used():\n"
        "    return encoder.quality_scores, k.kts, frame_f1\n"
        "def recursive():\n"
        "    return recursive()\n"
        "def caller():\n"
        "    return used()\n"
        "def _helper():\n"
        "    pass\n"
    )
    assert public_functions(source) == {"probe.used", "probe.recursive", "probe.caller"}
    assert references(source) == {
        "encoder.quality_scores", "kts.kts", "evaluation.frame_f1", "probe.used",
    }


def test_only_runtime_sets_the_allocator_policy():
    owners = [path.name for path in sorted(PACKAGE.glob("*.py")) if "mallopt" in _names(path)]
    assert owners == ["runtime.py"]


def test_the_scalar_type_check_sees_isinstance_and_type_tests(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "isinstance(x, int)\n"
        "isinstance(x, bool) or not isinstance(x, (int, float))\n"
        "type(x) is not str\n"
        "type(x) in [int, list]\n"
        "issubclass(t, float)\n"
        "isinstance(x, bool)\n"  # a flag's type: not a scalar rule
        "isinstance(x, Path)\n"
        "isinstance(x, list)\n"  # a JSON container's kind
        "type(x) is dict\n"
        "int(x) is y\n"
    )
    assert scalar_type_tests(source) == [
        (1, "isinstance(x, int)"),
        (2, "isinstance(x, (int, float))"),
        (3, "type(x) is not str"),
        (4, "type(x) in [int, list]"),
        (5, "issubclass(t, float)"),
    ]


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
        "from .dpp import QUALITY_FLOOR\n"
        "from . import dpp\n"
        "dpp.QUALITY_FLOOR\n"
        "from .data_model import check_int, is_integer\n"
        "import mdpp.data_model as dm\n"
        "dm.is_real\n"
    )
    assert reaches(source, _private) == [
        (3, "kts._BLOCK"),
        (4, "encoder._lstm_forward"),
        (5, "summarizer._view_shot_list"),
        (6, "k._dp_tables"),
    ]
    assert reaches(source, _floor) == [
        (10, "dpp.QUALITY_FLOOR"),
        (12, "dpp.QUALITY_FLOOR"),
    ]
    assert reaches(source, _type_rule) == [
        (13, "data_model.is_integer"),
        (15, "dm.is_real"),
    ]
