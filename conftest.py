"""Repository-level pytest configuration.

Makes the package importable from a fresh checkout even before
``pip install -e .`` has run, by putting ``src/`` on ``sys.path``.

Adds ``--reverse``, which runs the collected tests in reverse order, so
order dependence between tests shows up without a plugin::

    python -m pytest -x -q --reverse
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--reverse",
        action="store_true",
        default=False,
        help="run the collected tests in reverse order (order-independence check)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse"):
        items.reverse()
