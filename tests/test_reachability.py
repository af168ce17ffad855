"""Every public function and class of carleman is reached from a command
or an acceptance criterion, and every public name is defined once.

The walk parses src/carleman/*.py with ast.  It starts from the command
handlers cli._cmd_*, cli.main and acceptance.CRITERIA and follows every
name a reached definition uses: a top-level definition of its own module,
a name imported from a sibling module, or an attribute of one
(fixtures.pole_grid, acceptance.CRITERIA).  A reached class brings in all
of its methods and field defaults.  cli._FIXTURE_GRIDS selects the
fixtures.<name>_grid functions by name, so those count as reached with it.

Every defaulted parameter of a public function, of a public method or the
__init__ of a public class, and every defaulted field of a public dataclass
is passed by some call in src/, by keyword or by position; a call with **
sets every parameter.  A test's call does not count: a value that only a
test sets is capability no command or criterion uses.  cli.main's argv is
the one entry point a caller outside the package sets.  A call is matched
to a definition by its name alone (a class by its own name).
cli._fixture_grid's getattr(fixtures, ...) call stands for a call of each
fixtures.<name>_grid of cli._FIXTURE_GRIDS.

No public function or public method of a public class is a pass-through:
a body that, after its docstring, only returns a call whose arguments are
the function's own parameters in order.  Such a name is a second name for
one implementation; callers use the callee.

Every annotated field of a public dataclass is read somewhere in src/,
tests/ or perfbench/, as an attribute or through a getattr with a constant
name; again a read is matched to a field by its name alone.  An attribute
of an imported module (np.floor, np.linalg.norm) is not a read.
"""

import ast
import collections
import math
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "carleman"
PERFBENCH = TESTS.parent / "perfbench"

ALLOWED = set()
ALLOWED_UNSET = {"cli.main.argv"}


def _definitions(tree) -> dict:
    """Top-level functions, classes and assigned names: {name: node}."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update({t.id: node for t in targets
                        if isinstance(t, ast.Name)})
    return out


def _imports(tree) -> dict:
    """Names bound anywhere in a module by relative imports: {name: (module,
    name)}, with name None for `from . import module`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                out[bound] = (alias.name, None) if node.module is None \
                    else (node.module, alias.name)
    return out


def _package():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    return ({m: _definitions(t) for m, t in trees.items()},
            {m: _imports(t) for m, t in trees.items()})


def _reached(defs, imports) -> set:
    def resolve(mod, name):
        if name in defs[mod]:
            return mod, name
        src, orig = imports[mod].get(name, (None, None))
        return resolve(src, orig) if orig is not None else None

    def uses(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute) and \
                    isinstance(sub.value, ast.Name):
                src, orig = imports[mod].get(sub.value.id, (None, None))
                if src in defs and orig is None and sub.attr in defs[src]:
                    yield src, sub.attr

    roots = [("cli", n) for n in defs["cli"]
             if n.startswith("_cmd_") or n == "main"]
    stack, seen = roots + [("acceptance", "CRITERIA")], set()
    while stack:
        key = stack.pop()
        if key is None or key in seen:
            continue
        seen.add(key)
        node = defs[key[0]][key[1]]
        stack.extend(uses(key[0], node))
        if key == ("cli", "_FIXTURE_GRIDS"):
            stack.extend(("fixtures", f"{name}_grid")
                         for name in ast.literal_eval(node.value))
    return seen


def _public(defs) -> set:
    return {(m, n) for m, d in defs.items() for n, node in d.items()
            if not n.startswith("_")
            and isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_public_function_and_class_is_reached():
    defs, imports = _package()
    unreached = {f"{m}.{n}"
                 for m, n in _public(defs) - _reached(defs, imports)}
    assert unreached == ALLOWED


def test_public_names_are_defined_once():
    defs, _ = _package()
    where = collections.defaultdict(list)
    for m, d in defs.items():
        for n in d:
            if not n.startswith("_"):
                where[n].append(m)
    assert {n: ms for n, ms in where.items() if len(ms) > 1} == {}


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               or isinstance(d, ast.Name) and d.id == "dataclass"
               for d in node.decorator_list)


def _fields(node):
    """(name, in __init__, defaulted) for every annotated field of a
    dataclass body, in order."""
    for f in node.body:
        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
            v = f.value
            init = not (isinstance(v, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in v.keywords))
            yield f.target.id, init, v is not None


def _public_dataclasses(defs):
    for m, d in defs.items():
        for n, node in d.items():
            if not n.startswith("_") and isinstance(node, ast.ClassDef) \
                    and _is_dataclass(node):
                yield m, n, node


def _optional_parameters(defs):
    """(definition, callee name, parameter, position) for every defaulted
    parameter of a public function, a public method or the __init__ of a
    public class, and every defaulted __init__ field of a public dataclass;
    position is None for a keyword-only parameter and skips a method's
    self or cls.  A class is called by its own name."""
    for m, d in defs.items():
        for n, node in d.items():
            if n.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                fns = [(f"{m}.{n}", n, node, 0)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f"{m}.{n}.{f.name}",
                        n if f.name == "__init__" else f.name, f, 1)
                       for f in node.body if isinstance(f, ast.FunctionDef)
                       and (f.name == "__init__" or not f.name.startswith("_"))]
            else:
                continue
            for qual, callee, fn, skip in fns:
                a = fn.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                for i, arg in enumerate(pos[first:], first):
                    yield qual, callee, arg.arg, i - skip
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield qual, callee, arg.arg, None
    for m, n, node in _public_dataclasses(defs):
        init = [(f, default) for f, in_init, default in _fields(node)
                if in_init]
        for i, (f, default) in enumerate(init):
            if default:
                yield f"{m}.{n}", n, f, i


def _calls(defs):
    """(callee name, positional count, keywords) for every call in src/;
    the count is inf after a *, and keywords None after a **."""
    grids = [f"{name}_grid" for name in
             ast.literal_eval(defs["cli"]["_FIXTURE_GRIDS"].value)]
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                names = [f.id]
            elif isinstance(f, ast.Attribute):
                names = [f.attr]
            elif isinstance(f, ast.Call) and isinstance(f.func, ast.Name) \
                    and f.func.id == "getattr":
                names = grids
            else:
                continue
            npos = math.inf if any(isinstance(a, ast.Starred)
                                   for a in node.args) else len(node.args)
            kws = None if any(k.arg is None for k in node.keywords) \
                else {k.arg for k in node.keywords}
            for name in names:
                yield name, npos, kws


def test_every_optional_parameter_is_set_by_some_call():
    defs, _ = _package()
    calls = collections.defaultdict(list)
    for name, npos, kws in _calls(defs):
        calls[name].append((npos, kws))
    unset = {f"{qual}.{param}"
             for qual, name, param, i in _optional_parameters(defs)
             if not any(kws is None or param in kws
                        or i is not None and i < npos
                        for npos, kws in calls[name])}
    assert unset == ALLOWED_UNSET


def _reads(path) -> set:
    """Attribute names read in one file, by attribute access or by a
    getattr with a constant name; an attribute of a module bound by an
    import statement is not a read."""
    tree = ast.parse(path.read_text())
    modules = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                out.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            out.add(node.args[1].value)
    return out


def test_every_dataclass_field_is_read():
    defs, _ = _package()
    read = set().union(*map(_reads, [*SRC.glob("*.py"), *TESTS.glob("**/*.py"),
                                     *PERFBENCH.glob("**/*.py")]))
    unread = {f"{m}.{n}.{f}" for m, n, node in _public_dataclasses(defs)
              for f, _, _ in _fields(node) if f not in read}
    assert unread == set()


def _forwards(fn) -> bool:
    """Whether fn's body, after its docstring, is only `return g(<its
    parameters, in order>)`."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or \
            not isinstance(body[0].value, ast.Call):
        return False
    call, a = body[0].value, fn.args
    if a.vararg or a.kwonlyargs or a.kwarg or call.keywords:
        return False
    return [v.id if isinstance(v, ast.Name) else None for v in call.args] \
        == [p.arg for p in a.posonlyargs + a.args]


def test_no_public_function_is_a_pass_through():
    defs, _ = _package()
    found = set()
    for m, d in defs.items():
        for n, node in d.items():
            if n.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                fns = {n: node}
            elif isinstance(node, ast.ClassDef):
                fns = {f"{n}.{f.name}": f for f in node.body
                       if isinstance(f, ast.FunctionDef)
                       and not f.name.startswith("_")}
            else:
                continue
            found |= {f"{m}.{q}" for q, fn in fns.items() if _forwards(fn)}
    assert found == set()
