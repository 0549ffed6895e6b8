"""The config test modules once more, with every YAML text parsed by PyYAML's
Python loader, so that it and libyaml (which the other runs use when PyYAML
has it) pass the same tests.

The tests are imported, so pytest collects each of them a second time under
this module's name, and the module-scoped fixture below switches the loader
for all of them."""

import pytest
import yaml

import starkcomb.config

from conftest import yaml_loader
from test_config import *  # noqa: F401,F403
from test_config_cache import *  # noqa: F401,F403
from test_config_property import *  # noqa: F401,F403
from test_config_walk import *  # noqa: F401,F403


@pytest.fixture(scope="module", autouse=True)
def _python_loader():
    with yaml_loader("SafeLoader"):
        yield


def test_python_loader_in_use():
    assert starkcomb.config._LOADER is yaml.SafeLoader
