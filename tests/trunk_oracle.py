"""The field-by-field AUDIO_BATCH decoder: the oracle the one-pass
decoder in ``repro.trunk.wire`` is checked against.

This is the ``Reader`` entry loop ``decode_frame`` used before it
parsed each entry header with one prebound ``struct`` call.
tests/test_protocol_fuzz.py imports it as ``tests.trunk_oracle`` with
the repository root on the import path (pyproject's pytest
``pythonpath``).
"""

from __future__ import annotations

from repro.protocol.wire import Reader, WireFormatError
from repro.trunk.wire import MAX_BATCH_ENTRIES, FrameType, TrunkProtocolError


def decode_audio_batch_reference(body: bytes) -> tuple:
    """``(call_id, seq, payload)`` entries of one AUDIO_BATCH body."""
    reader = Reader(body)
    try:
        raw_type = reader.u8()
        if raw_type != FrameType.AUDIO_BATCH:
            raise TrunkProtocolError("not an AUDIO_BATCH: type %d"
                                     % raw_type)
        count = reader.u32()
        if count > MAX_BATCH_ENTRIES:
            raise TrunkProtocolError(
                "AUDIO_BATCH of %d entries too large" % count)
        entries = []
        for _ in range(count):
            entry_call = reader.u32()
            entry_seq = reader.u32()
            entries.append((entry_call, entry_seq, reader.blob()))
        reader.expect_end()
    except WireFormatError as exc:
        raise TrunkProtocolError(str(exc)) from None
    return tuple(entries)
