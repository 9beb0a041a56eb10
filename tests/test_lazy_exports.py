"""Every package resolves its export table lazily (PEP 562).

Each package ``__init__`` declares ``{module: names}`` once and hands it
to :func:`repro._lazy.lazy_exports`; these tests hold every package to
the public contract the eager imports used to give: each ``__all__``
name resolves to its defining module's object and is listed by
``dir()``, an unknown name is an ``AttributeError`` that names the
package, and ``from repro import *`` binds all of ``repro.__all__``.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))
from check_docs_refs import export_table  # noqa: E402

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    table = export_table(Path(package.__file__))
    assert table, f"{name} declares no export table"
    assert set(package.__all__) - {"__version__"} == set(table)
    listed = dir(package)
    for export, module in table.items():
        value = getattr(package, export)
        assert value is getattr(importlib.import_module(module, name),
                                export)
        assert vars(package)[export] is value  # cached after first use
        assert export in listed


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_name'"):
        package.no_such_name  # noqa: B018


def test_star_import_binds_every_top_level_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    missing = [name for name in repro.__all__ if name not in namespace]
    assert not missing
    assert namespace["__version__"] == repro.__version__
