"""The package's public names are the union of its modules' ``__all__`` tables."""

import itertools

import fracground
from fracground import errors, grid, nonlinearity, operators, solver, variational

MODULES = (errors, grid, operators, nonlinearity, variational, solver)


def test_module_tables_are_disjoint():
    for first, second in itertools.combinations(MODULES, 2):
        assert not set(first.__all__) & set(second.__all__), (first.__name__, second.__name__)


def test_package_table_is_the_union():
    tables = [name for module in MODULES for name in module.__all__]
    assert len(fracground.__all__) == len(set(fracground.__all__))
    assert set(fracground.__all__) == {"__version__", *tables}


def test_every_public_name_is_bound():
    for name in fracground.__all__:
        assert hasattr(fracground, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fracground, name) is getattr(module, name), name


def test_apply_multiplier_is_not_exported():
    # the benchmark tracer binds it in fracground.variational only, and rejects
    # any other module that still holds the unwrapped function
    assert not hasattr(fracground, "apply_multiplier")
