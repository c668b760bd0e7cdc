"""Contract of the lazy package namespaces (``repro._lazy``).

Each package ``__init__`` declares one export table, ``{submodule:
names}``; these tests read that table from the source and check that
the lazy namespace serves exactly it.
"""

import ast
import importlib
import pathlib

import pytest

import repro

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.graphs",
    "repro.obs",
    "repro.problems",
    "repro.protocols",
    "repro.runtime",
    "repro.runtime.sync",
    "repro.runtime.timed",
)


def export_table(package: str) -> dict:
    """The literal table a package passes to ``lazy_namespace``."""
    init = pathlib.Path(importlib.import_module(package).__file__)
    for node in ast.walk(ast.parse(init.read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_namespace"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} declares no export table")


def submodule_names(package: str) -> set:
    directory = pathlib.Path(importlib.import_module(package).__file__).parent
    return {
        path.stem if path.suffix == ".py" else path.name
        for path in directory.iterdir()
        if path.suffix == ".py" or (path / "__init__.py").exists()
    } - {"__init__"}


def test_every_package_is_covered():
    root = pathlib.Path(repro.__file__).parent
    found = {
        ".".join(("repro", *init.parent.relative_to(root).parts))
        for init in root.rglob("__init__.py")
    }
    assert found == set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyNamespace:
    def test_all_is_the_table(self, package):
        module = importlib.import_module(package)
        table = export_table(package)
        names = [
            name
            for submodule, exported in table.items()
            for name in (exported if exported is not None else (submodule,))
        ]
        assert len(names) == len(set(names))
        assert set(module.__all__) - {"__version__"} == set(names)

    def test_names_resolve_to_the_defining_object(self, package):
        module = importlib.import_module(package)
        for submodule, exported in export_table(package).items():
            source = importlib.import_module(f"{package}.{submodule}")
            if exported is None:
                assert getattr(module, submodule) is source
                continue
            for name in exported:
                value = getattr(module, name)
                assert value is getattr(source, name), name
                # Classes and functions are listed under the module
                # that defines them (aliases such as ``NodeId = str``
                # carry a foreign ``__module__`` and are skipped).
                defined_in = getattr(value, "__module__", None) or ""
                if defined_in.startswith("repro."):
                    assert defined_in == source.__name__, name

    def test_star_import_binds_everything(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")

    def test_no_export_shadows_a_submodule(self, package):
        # A submodule import binds the submodule on its package and
        # would overwrite an exported name equal to it.
        exported = {
            name
            for names in export_table(package).values()
            if names is not None
            for name in names
        }
        assert exported & submodule_names(package) == set()
