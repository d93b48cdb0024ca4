"""Session-id interning: one pass, the codes of the two-pass lookup it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.base import _Sessions

from tests.oracles.adapters import LookupFirstSessions

# Blank and whitespace ids (code -1), non-str cells, and raw spellings
# that strip to one id ("s1", " s1", "s1 ") or to another cell's text (1, "1").
CELLS = ["s1", " s1", "s1 ", "", "  ", None, 1, "1", 2.5, "2.5", True, "s2", ["s3"], "s3"]


def _intern_blocks(sessions, blocks):
    return [sessions.codes(block).tolist() for block in blocks], sessions.names


def test_spellings_blanks_and_non_str_cells():
    blocks = [["s2", " s1", "", "s2", 1, 2.5], ["1", "s1 ", "  ", 1, "s3", "s1"]]
    codes, names = _intern_blocks(_Sessions(), blocks)
    assert codes == [[0, 1, -1, 0, 2, 3], [2, 1, -1, 2, 4, 1]]
    assert names == ["s2", "s1", "1", "2.5", "s3"]
    assert (codes, names) == _intern_blocks(LookupFirstSessions(), blocks)


def test_empty_block():
    assert _Sessions().codes([]).dtype == np.int64
    assert _Sessions().codes([]).size == 0


@given(st.lists(st.lists(st.sampled_from(CELLS), max_size=12), max_size=5))
@settings(max_examples=200, deadline=None)
def test_matches_lookup_first_interning(blocks):
    assert _intern_blocks(_Sessions(), blocks) == _intern_blocks(
        LookupFirstSessions(), blocks
    )
