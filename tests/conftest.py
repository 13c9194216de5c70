import pytest

from blregion import load_catalog
from blregion.adams import install_hidden_rho_extensions
from blregion.bockstein import run_bockstein
from blregion.degrees import Window


@pytest.fixture(scope="session")
def cat():
    return load_catalog()


@pytest.fixture(scope="session")
def run24(cat):
    return run_bockstein(cat, Window(max_stem=24))


@pytest.fixture(scope="session")
def page24(run24):
    return install_hidden_rho_extensions(run24)


@pytest.fixture(scope="session")
def run10(cat):
    return run_bockstein(cat, Window(max_stem=10))


@pytest.fixture(scope="session")
def run40(cat):
    return run_bockstein(cat, Window(max_stem=40))
