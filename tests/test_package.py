"""Each module's surface: every exported name exists, once, every public
name is exported, and every unexported function, class and module-level
constant, and every method, has a caller; and the source parses at the
declared Python floor.  Every module-level function, class and constant
of the suite has a caller too."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import heolsim

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(heolsim.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_without_duplicates(name):
    module = importlib.import_module(f"heolsim.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_every_public_name(name):
    # Public: a function or class the module defines, or an UPPER_CASE
    # constant, whose name has no leading underscore.
    module = importlib.import_module(f"heolsim.{name}")
    public = [
        n for n, obj in vars(module).items()
        if not n.startswith("_") and (
            n.isupper()
            or (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        )
    ]
    assert sorted(set(public) - set(module.__all__)) == []


def _names_read(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _defined_names(stmt):
    """The names a top-level function, class or assignment defines, as a
    name or in a tuple of names (``_E_X, _E_Y = ...``)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    return [n.id for t in getattr(stmt, "targets", [])
            for n in (t.elts if isinstance(t, ast.Tuple) else [t]) if isinstance(n, ast.Name)]


# Each top-level statement of the package's source with the names it reads.
STATEMENTS = {
    path.stem: [(stmt, _names_read(stmt)) for stmt in ast.parse(path.read_text()).body]
    for path in Path(heolsim.__file__).parent.glob("*.py")
}


def _reached_from_outside(home):
    """The names the package's other modules read of the module ``home``:
    as attributes, or imported from it by name.  A name one of them reads
    bare is its own."""
    names = set()
    for stem, statements in STATEMENTS.items():
        if stem == home:
            continue
        for stmt, _ in statements:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and (
                        node.module or "").rpartition(".")[2] == home:
                    names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_unexported_definition_has_a_caller(name):
    # A function, class or module-level constant outside __all__ that no
    # other statement of its module names, and no other module reads of
    # it, has lost its last caller.  So has a method that no other
    # statement, nor another member of its class, names; dunders and
    # overrides of a base class's method are called by the language or the
    # base.
    module = importlib.import_module(f"heolsim.{name}")
    outside = _reached_from_outside(name)

    def named(ident, skip):
        return ident in outside or any(ident in reads for other, reads in STATEMENTS[name]
                                       if other is not skip)

    unused = [
        ident for stmt, _ in STATEMENTS[name] for ident in _defined_names(stmt)
        if ident not in module.__all__ and ident != "__all__"
        and not named(ident, stmt)
    ]
    for stmt, _ in STATEMENTS[name]:
        if isinstance(stmt, ast.ClassDef):
            bases = getattr(module, stmt.name).__mro__[1:]
            unused += [
                f"{stmt.name}.{method.name}" for method in stmt.body
                if isinstance(method, ast.FunctionDef)
                and not (method.name.startswith("__") and method.name.endswith("__"))
                and not any(hasattr(base, method.name) for base in bases)
                and not named(method.name, stmt)
                and not any(method.name in _names_read(other)
                            for other in stmt.body if other is not method)
            ]
    assert unused == []


# The same for the suite, whose fixtures are named by the parameters that
# request them.
SUITE = {
    path.stem: [(stmt, _names_read(stmt) | {node.arg for node in ast.walk(stmt)
                                            if isinstance(node, ast.arg)})
                for stmt in ast.parse(path.read_text()).body]
    for path in Path(__file__).parent.glob("*.py")
}


@pytest.mark.parametrize("name", sorted(SUITE))
def test_every_suite_helper_has_a_caller(name):
    # A module-level function, class or constant of the suite that no other
    # statement of the suite names has lost its last caller; pytest calls
    # the tests, the test classes and its hooks.
    unused = [
        ident for stmt, _ in SUITE[name] for ident in _defined_names(stmt)
        if not ident.startswith(("test_", "Test", "pytest_"))
        and not any(ident in reads for statements in SUITE.values()
                    for other, reads in statements if other is not stmt)
    ]
    assert unused == []


def _raised_names(statement):
    """Names of the exceptions a statement raises, as ``raise E(...)``,
    ``raise E`` or ``raise module.E(...)``."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                yield exc.id if isinstance(exc, ast.Name) else exc.attr


def test_each_exception_class_is_raised_only_in_its_module():
    # An exception's raise sites live beside the class and its contract;
    # other modules catch it or re-export it, but never raise it.
    homes = {
        stmt.name: name for name in MODULES
        for stmt, _ in STATEMENTS[name]
        if isinstance(stmt, ast.ClassDef) and issubclass(
            getattr(importlib.import_module(f"heolsim.{name}"), stmt.name),
            BaseException)
    }
    assert homes
    stray = sorted(
        (exc, name) for name, statements in STATEMENTS.items()
        for stmt, _ in statements for exc in _raised_names(stmt)
        if homes.get(exc, name) != name
    )
    assert stray == []


def _text_write_handles(statement):
    """Lines of a statement that open a text handle for writing:
    ``Path.write_text``, and ``open``, ``os.fdopen`` or ``Path.open``
    with a ``w``, ``a`` or ``x`` mode and no ``b``, or a mode that is not
    a literal.  ``os.open`` takes flags and gives a descriptor."""
    for node in ast.walk(statement):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "write_text":
            yield node.lineno
            continue
        if name == "fdopen" or isinstance(func, ast.Name) and name == "open":
            at = 1   # the mode follows the file
        elif name == "open" and not (isinstance(func.value, ast.Name) and func.value.id == "os"):
            at = 0   # Path.open
        else:
            continue
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
        mode = modes[0] if modes else ast.Constant("r")
        if not isinstance(mode, ast.Constant) or (
                set(str(mode.value)) & set("wax") and "b" not in str(mode.value)):
            yield node.lineno


def test_every_output_is_written_through_a_binary_handle():
    # Each output's bytes are decided once, where they are built: a text
    # handle would encode them again in the locale's codec and turn each
    # "\n" into the platform's line end.
    stray = sorted(
        (name, line) for name, statements in STATEMENTS.items()
        for stmt, _ in statements for line in _text_write_handles(stmt)
    )
    assert stray == []


@pytest.mark.parametrize("source, lines", [
    ('open(p, "w")\nos.fdopen(fd, "a")\nPath(p).open("x")\np.write_text(t)\n', [1, 2, 3, 4]),
    ('open(p, mode="w+")\nos.fdopen(fd, mode)\n', [1, 2]),
    ('open(p)\nopen(p, "wb")\nos.fdopen(fd, "ab")\np.open()\np.open("rb")\n'
     'os.open(p, os.O_WRONLY, 0o666)\np.read_text()\n', []),
])
def test_the_handle_check_finds_text_writes(source, lines):
    assert [line for stmt in ast.parse(source).body
            for line in _text_write_handles(stmt)] == lines


def _thread_mask_calls(statement):
    """Lines of a statement that call ``pthread_sigmask``, as
    ``signal.pthread_sigmask`` or by its bare name."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "pthread_sigmask":
                yield node.lineno


def test_no_signal_is_held_by_a_thread_mask():
    # A thread's signal mask holds nothing that another OS thread of the
    # process takes (numpy's BLAS starts some), so a signal is held by the
    # interpreter's handlers instead.
    stray = sorted(
        (name, line) for name, statements in STATEMENTS.items()
        for stmt, _ in statements for line in _thread_mask_calls(stmt)
    )
    assert stray == []


@pytest.mark.parametrize("source, lines", [
    ("signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})\n"
     "def f():\n    return pthread_sigmask(SIG_SETMASK, held)\n", [1, 3]),
    ("signal.signal(signal.SIGINT, handler)\nsignal.pthread_kill(tid, 2)\n", []),
])
def test_the_mask_check_finds_pthread_sigmask(source, lines):
    assert [line for stmt in ast.parse(source).body
            for line in _thread_mask_calls(stmt)] == lines


# The oldest Python that pyproject.toml admits.  The suite may run on a
# newer one, which would accept syntax the floor lacks (``except*``, say).
FLOOR = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (Path(__file__).parents[1] / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", sorted(Path(heolsim.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=FLOOR)


def test_the_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)
