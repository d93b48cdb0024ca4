"""Byte mutation of the ops request bodies: every body gets an HTTP answer.

``OpsServer._route`` is called directly with mutated ``/sessions/open``,
``/ingest`` and ``/decision`` bodies.  Whatever the bytes, it must return
a status and a payload (a 4xx for a malformed body) and never raise: an
exception escaping the handler leaves the client with no response.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.service import CharacterizationService
from repro.shard import OpsServer, ShardFleet, synthetic_traces

_STATUSES = {200, 202, 400, 404, 413, 429, 503}

_TRACE = synthetic_traces(1, seed=3, n_events=12, n_decisions=2)[0]
_SESSION = _TRACE.session_id

_BODIES = {
    "/sessions/open": {"session_id": "fresh", "shape": list(_TRACE.shape), "screen": [1920, 1080]},
    "/ingest": {
        "session_id": _SESSION,
        "x": _TRACE.x.tolist(),
        "y": _TRACE.y.tolist(),
        "codes": _TRACE.codes.tolist(),
        "t": _TRACE.t.tolist(),
    },
    "/decision": {
        "session_id": _SESSION,
        "row": int(_TRACE.d_rows[0]),
        "col": int(_TRACE.d_cols[0]),
        "confidence": float(_TRACE.d_conf[0]),
        "timestamp": float(_TRACE.d_t[0]),
    },
}


def _ingest_with_first_code(code) -> bytes:
    """The ``/ingest`` body with its first event code replaced by ``code``."""
    codes = [code] + _BODIES["/ingest"]["codes"][1:]
    return json.dumps(dict(_BODIES["/ingest"], codes=codes)).encode()


@pytest.fixture(scope="module")
def server(shard_model):
    fleet = ShardFleet(CharacterizationService(shard_model, chunk_size=4), 2, seed=1)
    fleet.open(_SESSION, _TRACE.shape)
    yield OpsServer(fleet)
    fleet.close()


def _answered(server, path, body) -> int:
    status, payload = server._route("POST", path, body)
    assert status in _STATUSES
    assert isinstance(payload, dict)
    json.dumps(payload, default=str)
    # Every read the fleet serves must still work after the request.
    server.fleet.stats()
    return status


@st.composite
def _mutated(draw):
    path = draw(st.sampled_from(sorted(_BODIES)))
    body = bytearray(json.dumps(_BODIES[path]).encode())
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        at = draw(st.integers(0, max(len(body) - 1, 0)))
        if kind == "flip" and body:
            body[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            body[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del body[at : at + draw(st.integers(1, 8))]
        else:
            del body[at:]
    return path, bytes(body)


@st.composite
def _hostile_values(draw):
    """A well-formed body with one field replaced by a hostile JSON value."""
    path = draw(st.sampled_from(sorted(_BODIES)))
    request = dict(_BODIES[path])
    field = draw(st.sampled_from(sorted(request)))
    request[field] = draw(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**70), 2**70),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1.7, -0.5, 1e300, -1e300]),
                st.text(max_size=8),
            ),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=8,
        )
    )
    return path, json.dumps(request).encode()


@settings(max_examples=300, deadline=None)
@given(case=_mutated())
def test_mutated_bodies_are_answered(server, case):
    _answered(server, *case)


@settings(max_examples=200, deadline=None)
@given(case=_hostile_values())
def test_hostile_field_values_are_answered(server, case):
    _answered(server, *case)


@pytest.mark.parametrize(
    "path, body",
    [
        ("/ingest", b"\xff\xfe"),
        ("/sessions/open", b"[" * 100_000),
        ("/decision", json.dumps(_BODIES["/decision"]).encode().replace(b'"row": ', b'"row": 1e400, "_": ')),
        ("/sessions/open", b'{"session_id": "fresh", "shape": [6, 6], "screen": [190]}'),
    ],
    ids=["not-utf8", "deeply-nested", "overflowing-row", "one-value-screen"],
)
def test_reproduced_escapes_are_400(server, path, body):
    assert _answered(server, path, body) == 400


@pytest.mark.parametrize("code", [1.7, -0.5, 1e300, -1e300])
@pytest.mark.parametrize("quarantine", [False, True], ids=["strict", "screened"])
def test_non_integer_codes_are_caught_before_the_cast(shard_model, code, quarantine):
    """A fresh session's ``/ingest`` with one fractional or huge code: a 400 on
    a strict fleet, one ``malformed`` record on a screened one, never a
    silently truncated code or a cast warning."""
    fleet = ShardFleet(
        CharacterizationService(shard_model, chunk_size=4), 2, seed=1,
        quarantine=True if quarantine else None,
    )
    try:
        fleet.open(_SESSION, _TRACE.shape)
        status, payload = OpsServer(fleet)._route("POST", "/ingest", _ingest_with_first_code(code))
        if quarantine:
            assert status == 202
            assert fleet.quarantine_counts()["by_reason"]["malformed"] == 1
            assert len(fleet.session(_SESSION).buffer) == len(_TRACE.codes) - 1
        else:
            assert status == 400
            assert "is not an integer" in payload["error"]
            assert len(fleet.session(_SESSION).buffer) == 0
    finally:
        fleet.close()
