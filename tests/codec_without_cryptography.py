"""Charge the policer at every BW code, and round-trip every fixture packet, in an
interpreter whose `import cryptography` fails.

    PYTHONPATH=src python tests/codec_without_cryptography.py tests/vectors/packets.json

Importing the codec, the policer or the allocator loads no cipher code.  The
policer charges each BW code from its table what the ceiling division of the
code's bits gives, and refuses code 0 and the codes outside 10 bits; the codec
decodes and re-encodes each fixture byte for byte.  The last line printed is
the fixture count.
"""

import json
import sys

sys.modules["cryptography"] = None  # any import of it now raises ImportError

import hummingbird.residalloc  # noqa: E402
from hummingbird.policing import PolicingError, TokenBucketArray, monitor_code  # noqa: E402
from hummingbird.wire import decode_bw, decode_packet, encode_packet  # noqa: E402

PKT_LEN, NOW = 1500, 10**9
refused = {
    -1: "bw code out of range for 10-bit field: -1",
    0: "bw code 0 carries no bandwidth",
    1024: "bw code out of range for 10-bit field: 1024",
}
for code in range(-1, 1025):
    bucket = TokenBucketArray(1, burst_time_ns=1 << 62)
    try:
        priority = monitor_code(bucket, 0, code, PKT_LEN, NOW)
    except PolicingError as exc:
        assert str(exc) == refused.pop(code), (code, str(exc))
        continue
    bits = decode_bw(code)
    assert priority and bucket.ts[0] == NOW + -(-PKT_LEN * 8 * 10**9 // bits), code
assert not refused, refused
print("BW codes 1 to 1023 charge the ceiling division and 0, -1 and 1024 are refused")

with open(sys.argv[1]) as fixtures:
    cases = json.load(fixtures)["cases"]
for case in cases:
    raw = bytes.fromhex(case["hex"])
    assert encode_packet(decode_packet(raw)) == raw, case["hex"]
print(f"{len(cases)} fixture packets round-trip without cryptography")
