"""Property: ``serialize_head() + body`` is byte-identical to
``serialize()`` for every response.

The zero-copy send path (``socket.sendmsg([head, body])`` gather
writes) relies on this split never changing a single wire byte relative
to the monolithic serializer.
"""

from hypothesis import given, settings, strategies as st

from repro.http.headers import Headers
from repro.http.messages import Response

_status = st.sampled_from([200, 204, 206, 301, 302, 304, 400, 404, 416,
                           500, 503])
_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1,
                 max_size=12)
_value = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 /=;,.:+-\"",
    max_size=24)
_body = st.binary(max_size=512)


@st.composite
def responses(draw):
    headers = Headers()
    for __ in range(draw(st.integers(0, 6))):
        headers.add(draw(_token).title(), draw(_value))
    if draw(st.booleans()):
        # Exercise both the caller-supplied and the synthesized
        # Content-Length branches of serialize_head().
        headers.set("Content-Length", str(draw(st.integers(0, 10_000))))
    return Response(status=draw(_status), headers=headers, body=draw(_body))


@settings(max_examples=200, deadline=None)
@given(responses())
def test_head_plus_body_equals_serialize(response):
    assert response.serialize_head() + response.body == response.serialize()


@settings(max_examples=50, deadline=None)
@given(responses())
def test_head_ends_with_blank_line_and_has_no_body_bytes(response):
    head = response.serialize_head()
    assert head.endswith(b"\r\n\r\n")
    # The head is pure status line + headers: parsing it back as latin-1
    # text must succeed and contain the status line.
    text = head.decode("latin-1")
    assert text.startswith(f"{response.version} {response.status} ")


@settings(max_examples=50, deadline=None)
@given(responses())
def test_serialize_head_is_idempotent(response):
    # First call may synthesize Content-Length into the header map;
    # the second call must produce the identical bytes.
    assert response.serialize_head() == response.serialize_head()
