"""Round-trip every fixture packet in an interpreter whose `import cryptography` fails.

    PYTHONPATH=src python tests/codec_without_cryptography.py tests/vectors/packets.json

Importing the codec, the policer or the allocator loads no cipher code, and
the codec decodes and re-encodes each fixture byte for byte without it.
"""

import json
import sys

sys.modules["cryptography"] = None  # any import of it now raises ImportError

import hummingbird.policing  # noqa: E402
import hummingbird.residalloc  # noqa: E402
from hummingbird.wire import decode_packet, encode_packet  # noqa: E402

with open(sys.argv[1]) as fixtures:
    cases = json.load(fixtures)["cases"]
for case in cases:
    raw = bytes.fromhex(case["hex"])
    assert encode_packet(decode_packet(raw)) == raw, case["hex"]
print(f"{len(cases)} fixture packets round-trip without cryptography")
