"""Repository-level pytest configuration.

Makes the package importable from a fresh checkout even before
``pip install -e .`` has run, by putting ``src/`` on ``sys.path``.

Adds two order-independence checks without a plugin: ``--reverse`` runs
the collected tests in reverse order, and ``--shuffle SEED`` in an order
drawn from ``random.Random(SEED)`` (the seed is printed in the header,
so a failing order can be rerun)::

    python -m pytest -x -q --reverse
    python -m pytest -x -q --shuffle 7

Registers the Hypothesis profile ``explore``: fresh random examples on
every run (no derandomizing, no example database, no deadline), with the
reproduction blob of a failure printed.  With an explicit seed a failing
run replays locally::

    python -m pytest -x -q tests/ml --hypothesis-profile=explore --hypothesis-seed=N
"""

import random
import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile(
    "explore", derandomize=False, deadline=None, database=None, print_blob=True
)

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
    parser.addoption(
        "--shuffle",
        type=int,
        default=None,
        metavar="SEED",
        help="run the collected tests in an order shuffled by SEED (order-independence check)",
    )


def pytest_report_header(config):
    seed = config.getoption("--shuffle")
    if seed is not None:
        return f"test order shuffled with --shuffle {seed}"
    return None


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse"):
        items.reverse()
    seed = config.getoption("--shuffle")
    if seed is not None:
        random.Random(seed).shuffle(items)
