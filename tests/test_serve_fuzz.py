"""Fuzz the daemon's request path in-process, without sockets.

A request body goes through ``loads_wire``, the request schemas
(``JoinRequest.from_dict`` with and without ``require_predicate``,
``BuildIndexRequest.from_dict``) and ``JoinService._resolve`` under a
dataset root. Whatever the bytes, the only outcomes allowed are a
validated request, a ``WireError`` or a 4xx ``ServiceError`` — never an
exception the daemon would answer with a 500.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    BuildIndexRequest,
    JoinRequest,
    JoinService,
    ServiceError,
    WireError,
    loads_wire,
)
from repro.serve.schema import JOIN_METHODS, JOIN_MODES, PAYLOAD_CODECS

NAME_FIELDS = ("r", "s", "data", "index")
#: A valid value for each other request field.
VALID = {
    "method": st.sampled_from(JOIN_METHODS),
    "mode": st.sampled_from(JOIN_MODES),
    "grid_order": st.integers(1, 16),
    "predicate": st.sampled_from(["intersects", "inside", "covered by"]),
    "workers": st.integers(1, 4),
    "include_disjoint": st.booleans(),
    "payload_codec": st.sampled_from(PAYLOAD_CODECS),
    "approximate": st.booleans(),
}

#: Any code point, lone surrogates and NUL included: JSON escapes carry
#: them, and the OS cannot represent every one of them in a path.
any_text = st.text(st.characters(exclude_categories=()), max_size=12)
names = st.one_of(
    any_text,
    st.sampled_from(["r.wkt", "s.wkt", "..", "../x", "/etc/passwd", "a\x00b",
                     "\ud800", "", ".", "x/" * 40]),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), names,
    *VALID.values(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(any_text, inner, max_size=3),
    max_leaves=6,
)
#: Request-shaped: every name field is there, half the time a string,
#: and any other field half the time valid, so examples reach
#: ``_resolve``.
requests = st.fixed_dictionaries(
    {field: st.one_of(names, values) for field in NAME_FIELDS},
    optional={
        field: st.one_of(valid, values) for field, valid in VALID.items()
    },
)
objects = st.dictionaries(
    st.one_of(st.sampled_from([*NAME_FIELDS, *VALID]), any_text), values,
    max_size=8,
)
#: Half the bodies are request-shaped.
bodies = st.one_of(
    requests.map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.one_of(
        objects.map(lambda doc: json.dumps(doc).encode("utf-8")),
        values.map(lambda doc: json.dumps(doc).encode("utf-8")),
        st.binary(max_size=200),
    ),
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    service = JoinService(root=tmp_path_factory.mktemp("root"))
    yield service
    service.close()


def _check(parse, names_of, service, payload):
    try:
        request = parse(payload)
        for name in names_of(request):
            service._resolve(name)
    except WireError:
        pass
    except ServiceError as exc:
        assert 400 <= exc.status < 500, exc


@settings(max_examples=400, deadline=None)
@given(body=bodies)
def test_request_bodies_validate_or_refuse(service, body):
    try:
        payload = loads_wire(body)
    except WireError:
        return
    for require_predicate in (False, True):
        _check(
            lambda p: JoinRequest.from_dict(p, require_predicate=require_predicate),
            lambda request: (request.r, request.s), service, payload,
        )
    _check(
        BuildIndexRequest.from_dict, lambda request: (request.data, request.index),
        service, payload,
    )
