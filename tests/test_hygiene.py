"""Static hygiene of the package and test modules, checked with ``ast``.

Every name a module imports must be read somewhere in it, and so must every
private module-level constant (``_NAME = ...``), function and class.  A name
left behind by a refactor otherwise hides which module depends on which.
The package's ``__init__.py`` is skipped: its imports are the re-exports.
"""

import ast
import re
from itertools import chain
from pathlib import Path

import pytest

import heatseries

MODULES = sorted(
    p for p in Path(heatseries.__file__).parent.glob("*.py") if p.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))
PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_constants(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        names += [
            t.id for t in targets
            if isinstance(t, ast.Name) and PRIVATE_CONSTANT.fullmatch(t.id)
        ]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def unused_names(source: str) -> list[str]:
    """Imported names, private module constants and private module-level
    functions and classes that the source never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [
        name
        for name in _imported_names(tree) + _private_constants(tree) + _private_definitions(tree)
        if name not in read
    ]


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"backend.py", "kernel_approx.py", "test_hygiene.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_import_and_private_constant(path):
    assert unused_names(path.read_text()) == []


def test_scan_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .moments import MultiIndex, Radial as R\n"
        "_LOG_PI = math.log(math.pi)\n"
        "_USED = 2\n"
        "_lower = 3\n"
        "def f():\n"
        "    return _USED, _helper()\n"
        "def _helper():\n"
        "    return 1\n"
        "def _orphan():\n"
        "    return 2\n"
        "class _Orphan:\n"
        "    def _method(self):\n"
        "        return 3\n"
        "def __getattr__(name):\n"
        "    return name\n"
    )
    assert unused_names(source) == ["os", "MultiIndex", "R", "_LOG_PI", "_orphan", "_Orphan"]


def test_package_exports_exactly_what_it_imports():
    # a re-export that outlives its definition fails the import itself; one
    # dropped from the imports but left in __all__ fails here
    tree = ast.parse(Path(heatseries.__file__).read_text())
    imported = set(_imported_names(tree))
    assert set(heatseries.__all__) == imported
    assert len(heatseries.__all__) == len(imported)
    assert all(hasattr(heatseries, name) for name in heatseries.__all__)


def _reads_entries(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "entries" for node in ast.walk(tree)
    )


def test_only_moments_reads_table_entries():
    # the table's dict form exists for callers outside the package; every
    # package route reads the arrays, and moments.py only defines it, so no
    # package module reads or assigns it
    package = sorted(Path(heatseries.__file__).parent.glob("*.py"))
    readers = [p.name for p in package if _reads_entries(ast.parse(p.read_text()))]
    assert readers == []
    assert _reads_entries(ast.parse("table.entries[a].sign"))
    assert _reads_entries(ast.parse("self.entries = entries"))
    assert not _reads_entries(ast.parse("def entries(self):\n    return self._entries"))


def _calls_aligned_sum(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Call)
        and "aligned_sum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_no_package_module_calls_the_list_form_aligned_sum():
    # every package route reduces sign and log arrays with aligned_sums or
    # its one-span case aligned_sum_arrays; the SignedLog-list adapter is
    # for callers outside the package
    package = sorted(Path(heatseries.__file__).parent.glob("*.py"))
    assert [p.name for p in package if _calls_aligned_sum(ast.parse(p.read_text()))] == []
    assert _calls_aligned_sum(ast.parse("aligned_sum(terms)"))
    assert _calls_aligned_sum(ast.parse("signedlog.aligned_sum(terms)"))
    assert not _calls_aligned_sum(ast.parse("aligned_sum_arrays(signs, logs)"))


def _calls_reduceat(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "reduceat" for node in ast.walk(tree)
    )


def test_only_signedlog_reduces_spans():
    # a log-space sum over spans of terms is aligned_sums' job; a second
    # reduction elsewhere would round the same sums another way
    package = sorted(Path(heatseries.__file__).parent.glob("*.py"))
    readers = [p.name for p in package if _calls_reduceat(ast.parse(p.read_text()))]
    assert readers == ["signedlog.py"]
    assert _calls_reduceat(ast.parse("np.add.reduceat(np.exp(gaps), starts)"))
    assert not _calls_reduceat(ast.parse("np.add.reduce(values)"))


def _spells_unit_roundoff(tree: ast.Module) -> bool:
    """Whether the source writes a ``** -53`` power, an ``.epsilon``
    attribute or ``finfo(...).eps``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            try:
                if ast.literal_eval(node.right) == -53:
                    return True
            except ValueError:
                pass
        elif isinstance(node, ast.Attribute):
            func = getattr(node.value, "func", None)
            if node.attr == "epsilon" or node.attr == "eps" and "finfo" in (
                getattr(func, "id", None), getattr(func, "attr", None)
            ):
                return True
    return False


def test_only_signedlog_spells_the_unit_roundoff():
    # U = 2^-53 and EPS = 2U are defined once, beside the allowances built
    # on them; a second spelling is a second rounding model
    package = sorted(Path(heatseries.__file__).parent.glob("*.py"))
    spellers = [p.name for p in package if _spells_unit_roundoff(ast.parse(p.read_text()))]
    assert spellers == ["signedlog.py"]
    for source in (
        "u = 2.0**-53", "u = 2 ** (-53)", "eps = sys.float_info.epsilon",
        "eps = float(np.finfo(float).eps)", "eps = finfo(np.float64).eps",
    ):
        assert _spells_unit_roundoff(ast.parse(source)), source
    for source in (
        "tiny = 2.0**-1072", "big = 2.0**53", "x = a ** b", "y = EPS * scale",
        "z = args.eps", "info = np.finfo(float)",
    ):
        assert not _spells_unit_roundoff(ast.parse(source)), source


def _imported_modules(tree: ast.Module) -> list[str]:
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


def _imports_scipy(tree: ast.Module) -> bool:
    return any(m.split(".")[0] == "scipy" for m in _imported_modules(tree))


def test_no_package_module_imports_scipy():
    # the package's runtime depends on numpy alone; scipy is the tests'
    # independent cross-check, so no package module, at top level or inside
    # a function, may import it
    package = sorted(Path(heatseries.__file__).parent.glob("*.py"))
    assert [p.name for p in package if _imports_scipy(ast.parse(p.read_text()))] == []
    assert _imports_scipy(ast.parse("def f():\n    from scipy.special import i0e"))
    assert _imports_scipy(ast.parse("import scipy.integrate as si"))
    assert not _imports_scipy(ast.parse("from .specfun import i0e\nimport scipyish"))


# --- range checks live in errors.py -------------------------------------
#
# Whether an integer or real argument is in range, and how a bad one is
# reported, is decided once: by check_integer's lo and hi and check_real's
# bound.  A problem reported from a hand-rolled comparison with math.inf,
# from a comparison of an argument with a number right after its
# check_integer, or from the CLI's comparison of an option with a number,
# is that decision made again with its own wording.  A problem is reported
# by raising DomainError or the CLI's UsageError, or by appending to a list
# of problems that such a raise joins into its message.


def _raise_of(statement: ast.stmt, errors) -> bool:
    return (
        isinstance(statement, ast.Raise)
        and isinstance(statement.exc, ast.Call)
        and getattr(statement.exc.func, "id", None) in errors
    )


def _problem_lists(tree: ast.Module) -> set[str]:
    """Names read in the message of a raise of DomainError or UsageError."""
    return {
        name.id
        for node in ast.walk(tree)
        if _raise_of(node, ("DomainError", "UsageError"))
        for arg in node.exc.args
        for name in ast.walk(arg)
        if isinstance(name, ast.Name)
    }


def _appends_to(statement: ast.stmt, lists) -> bool:
    call = getattr(statement, "value", None)
    return (
        isinstance(statement, ast.Expr)
        and isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) == "append"
        and getattr(call.func.value, "id", None) in lists
    )


def _reports(statements, lists, errors=("DomainError", "UsageError")) -> bool:
    """Whether a statement raises one of ``errors`` or appends to one of
    ``lists``."""
    return any(_raise_of(s, errors) or _appends_to(s, lists) for s in statements)


def _is_math_inf(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "inf"
        and getattr(node.value, "id", None) == "math"
    )


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _comparisons(test: ast.AST):
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            yield [node.left, *node.comparators]


def _inf_range_checks(tree: ast.Module) -> list[int]:
    """Lines of each ``if`` that compares with math.inf and reports a
    problem in its body."""
    lists = _problem_lists(tree)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and _reports(node.body, lists)
        and any(map(_is_math_inf, chain.from_iterable(_comparisons(node.test))))
    ]


def _checked_integer(statement: ast.stmt) -> str | None:
    """ast.dump of x in a statement ``check_integer(name, x, ...)``."""
    call = getattr(statement, "value", None)
    if (
        isinstance(statement, ast.Expr)
        and isinstance(call, ast.Call)
        and getattr(call.func, "id", None) == "check_integer"
        and len(call.args) >= 2
    ):
        return ast.dump(call.args[1])
    return None


def _integer_range_checks(tree: ast.Module) -> list[int]:
    """Lines of each ``if`` that reports a problem in its body, follows a
    run of check_integer(name, x) calls directly, and compares one of
    those x with a number."""
    lists, lines = _problem_lists(tree), []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            statements = getattr(node, field, None)
            checked = set()
            for statement in statements if isinstance(statements, list) else []:
                if (x := _checked_integer(statement)) is not None:
                    checked.add(x)
                    continue
                if (
                    checked
                    and isinstance(statement, ast.If)
                    and _reports(statement.body, lists)
                    and any(
                        any(ast.dump(o) in checked for o in operands)
                        and any(map(_is_number, operands))
                        for operands in _comparisons(statement.test)
                    )
                ):
                    lines.append(statement.lineno)
                checked = set()
    return lines


def _option_range_checks(tree: ast.Module) -> list[int]:
    """Lines of each ``if`` that reports a problem in its body by raising
    UsageError or by appending to a list of problems, and compares a name
    or an attribute (an option, ``args.dim``) with a number."""
    lists = _problem_lists(tree)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and _reports(node.body, lists, errors=("UsageError",))
        and any(
            any(isinstance(o, (ast.Name, ast.Attribute)) for o in operands)
            and any(map(_is_number, operands))
            for operands in _comparisons(node.test)
        )
    ]


def test_only_errors_py_checks_ranges():
    package = sorted(Path(heatseries.__file__).parent.glob("*.py"))
    hand_rolled = {
        p.name: _inf_range_checks(tree) + _integer_range_checks(tree) + _option_range_checks(tree)
        for p in package
        if p.name != "errors.py"
        for tree in [ast.parse(p.read_text())]
    }
    assert {name: lines for name, lines in hand_rolled.items() if lines} == {}


def test_range_check_scan_flags_hand_rolled_checks():
    source = (
        "def f(a, n, k, table):\n"
        "    if not 0.0 < a < math.inf:\n"
        "        raise DomainError('a')\n"
        "    if a == -math.inf:\n"
        "        return 0\n"
        "    check_integer('n', n)\n"
        "    check_integer('k', k)\n"
        "    if n < 0 or k > 3:\n"
        "        raise DomainError('n')\n"
        "    for k in n:\n"
        "        check_integer('k', k)\n"
        "        if not -1 <= k <= LIMIT:\n"
        "            raise DomainError('k')\n"
        "    check_integer('k', k, 0)\n"
        "    if table.k_max < k + 1:\n"
        "        raise DomainError('deeper table')\n"
        "    if k % 2 == 0:\n"
        "        raise DomainError('odd')\n"
    )
    tree = ast.parse(source)
    assert _inf_range_checks(tree) == [2]
    assert _integer_range_checks(tree) == [8, 12]
    assert _option_range_checks(tree) == []
    # the CLI's options, checked by hand into a list of problems
    options = (
        "def validate(args):\n"
        "    given = vars(args)\n"
        "    problems = []\n"
        "    if 'dim' in given and args.dim < 1:\n"
        "        problems.append('--dim must be >= 1')\n"
        "    for name in ('t0', 't'):\n"
        "        value = given.get(name)\n"
        "        if value is not None and not 0.0 < value < math.inf:\n"
        "            problems.append(f'--{name} must be finite and > 0')\n"
        "    if 'kmax' in given and not 0 <= args.kmax <= 200:\n"
        "        problems.append('--kmax must be in [0, 200]')\n"
        "    if args.grid_points % 2 == 0:\n"
        "        problems.append('--grid-points must be odd')\n"
        "    if args.command == 'divergence' and not args.t < args.t0:\n"
        "        problems.append('divergence requires --t < --t0')\n"
        "    if args.command == 'error-curve' and args.dim > 2:\n"
        "        raise UsageError('error-curve supports --dim 1 or 2')\n"
        "    if args.kmax > 100:\n"
        "        notes.append('a deep table')\n"
        "    if problems:\n"
        "        raise UsageError('; '.join(problems))\n"
    )
    tree = ast.parse(options)
    assert _inf_range_checks(tree) == [8]
    assert _integer_range_checks(tree) == []
    assert sorted(_option_range_checks(tree)) == [4, 8, 10, 16]


# --- one verdict for every self-check in cli.py ---------------------------
#
# Whether a self-check row holds is decided once, by cli._holds (both sides
# finite and lhs <= rhs), and a failure is reported once, by the one
# function that raises AssertionFailure.  A command that raises it itself,
# or tests finiteness itself, decides a verdict again with its own wording
# and its own treatment of NaN.


def _calls_isfinite(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and "isfinite" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _verdict_sites(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The top-level definition around each raise of AssertionFailure, one
    entry per raise, and the cmd_* functions that call an ``isfinite``."""
    raisers = [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if _raise_of(node, ("AssertionFailure",))
    ]
    checkers = [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_")
        and any(map(_calls_isfinite, ast.walk(top)))
    ]
    return raisers, checkers


def test_one_function_decides_every_self_check():
    tree = ast.parse((Path(heatseries.__file__).parent / "cli.py").read_text())
    assert _verdict_sites(tree) == (["_verdict"], [])


def test_verdict_scan_flags_commands_that_decide_their_own():
    # the shape of the commands before the ledger: each kept its own
    # non-finite and failure lists and raised on them
    source = (
        "def cmd_error_curve(args):\n"
        "    nonfinite = [p.k for p in points if not math.isfinite(p.sup_error)]\n"
        "    if nonfinite:\n"
        "        raise AssertionFailure(f'non-finite sup error at k={nonfinite}')\n"
        "    bad = [p.k for p in points if p.sup_error > p.F_k * _ASSERT_SLACK]\n"
        "    if bad:\n"
        "        raise AssertionFailure(f'sup error exceeded the bound at k={bad}')\n"
        "def cmd_eigen_compare(args):\n"
        "    sweep = [(t, isfinite(validity_integral(coeffs, t))) for t in ts]\n"
        "def cmd_decomp_check(args):\n"
        "    if not all(row[-1] for row in rows):\n"
        "        raise AssertionFailure('decomposition checks failed')\n"
        "def _holds(lhs, rhs):\n"
        "    return math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs\n"
        "def _verdict(rows):\n"
        "    if failed:\n"
        "        raise AssertionFailure('; '.join(failed))\n"
    )
    assert _verdict_sites(ast.parse(source)) == (
        ["cmd_error_curve", "cmd_error_curve", "cmd_decomp_check", "_verdict"],
        ["cmd_error_curve", "cmd_eigen_compare"],
    )
