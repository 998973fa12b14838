"""Every public export is reached from a CLI subcommand, or is listed here.

The walk reads the source of `lil_lab` with `ast` and runs nothing.  It
starts at `cli.SPECS`, whose rows name the subcommand executors.  A
module-level function, class or constant is reached when the body of a
reached one names it: as a bare name, defined in its module or imported
from another `lil_lab` module, or as `module.name` through an imported
module.  Reaching a class reaches its whole body.  A method called on an
object is not resolved by name, so the walk under-counts rather than
over-counts what a subcommand uses.

`UNREACHED` lists the exports no subcommand reaches, each with the
reason it stays exported.  The list is kept exact: a listed export that a
subcommand starts to reach fails here until it leaves the list, and an
export that none reaches fails until it joins the list with its reason.
"""

import ast
from pathlib import Path

import lil_lab

_SRC = Path(lil_lab.__file__).resolve().parent

UNREACHED = {
    "split_tail_bound": "the Gaussian-plus-linear split of the shifted maximal tail; fn-verify reports fn and kr rows",
    "truncated_path": "the truncated-twin path sampler, a library route with no subcommand yet",
    "psi_inv": "the inverse of psi in floats; the analytic route inverts in logs (`psi_inv_log`)",
    "series_classify": "c0's series as a function of h, one classifier call along `NormalizerSeq(h)`; "
                       "`c0_compute` probes it through `alpha0_compute`",
    "psi_inv_moment": "a Monte Carlo estimate of E psi^-1(||X||), the moment condition; no subcommand reports it",
    "trunc_cov_empirical": "a sample's truncated covariance at one t, the matrix behind an empirical H",
    "truncated_second_moment": "H at one point of a law or a sample, for library callers",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}


def _top_level(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Each module-level function, class or assigned name, with the nodes that define it."""
    defs: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs.setdefault(name.id, []).append(node)
    return defs


def _imports(tree: ast.Module, modules) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The package-relative imports anywhere in a module: names bound to
    (module, name), and aliases bound to a module."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module is None and alias.name in modules:
                aliases[bound] = alias.name
            else:
                names[bound] = (node.module or "__init__", alias.name)
    return names, aliases


def _walk():
    """The (module, name) pairs reached from `cli.SPECS`, and the resolver
    that maps a name seen from a module to where it is defined."""
    modules = _modules()
    defs = {mod: _top_level(tree) for mod, tree in modules.items()}
    imported, aliases = {}, {}
    for mod, tree in modules.items():
        imported[mod], aliases[mod] = _imports(tree, modules)

    def resolve(mod: str, name: str):
        """Where `name`, as seen from `mod`, is defined, following re-imports."""
        seen = set()
        while (mod, name) not in seen:
            seen.add((mod, name))
            if name in defs[mod]:
                return mod, name
            if name not in imported[mod]:
                return None
            mod, name = imported[mod][name]
        return None

    reached, todo = set(), [("cli", "SPECS")]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached:
            continue
        reached.add((mod, name))
        module_aliases = aliases[mod]
        for node in defs[mod][name]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    target = resolve(mod, sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in module_aliases:
                    target = resolve(module_aliases[sub.value.id], sub.attr)
                else:
                    continue
                if target is not None:
                    todo.append(target)
    return reached, resolve


def _exports() -> dict[str, tuple[str, str]]:
    """Each name in the export table of `lil_lab/__init__.py`, with the submodule it comes from."""
    tree = ast.parse((_SRC / "__init__.py").read_text())
    [table] = [node.value for node in tree.body
               if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]]
    return {name: (module, name) for module, names in ast.literal_eval(table).items() for name in names}


def test_the_walk_starts_at_every_executor():
    reached, _ = _walk()
    executors = {name for mod, name in reached if mod == "cli" and name.startswith("_exec_")}
    assert executors == {"_exec_hclass", "_exec_constants", "_exec_fn_bound", "_exec_fn_verify",
                         "_exec_lil_sim", "_exec_report"}


def test_every_export_is_reached_or_listed_with_a_reason():
    (reached, resolve), exports = _walk(), _exports()
    assert set(UNREACHED) <= set(exports), "a listed name is no longer exported"
    unreached = {name for name, (mod, orig) in exports.items() if resolve(mod, orig) not in reached}
    assert sorted(unreached - set(UNREACHED)) == [], "exports no subcommand reaches: list them with a reason"
    assert sorted(set(UNREACHED) - unreached) == [], "listed exports a subcommand now reaches: drop them"
