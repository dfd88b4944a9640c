"""Corruption fuzz of the `packet` commands.

`packet encode --spec`: a golden packet object is corrupted one field at
a time, each leaf and each container deleted or set to each of
`test_scenario_fuzz.VALUES`.  A corruption is either refused with exit 2
and one line of diagnostic, or encoded to hex that decodes back to it.

`packet decode` and `packet verify`: hex that is truncated, one byte too
long, odd-length or not hex, and keys of the wrong length.  The router
returns a decision for any byte string, so `verify` drops a packet of
the wrong length with exit 0; everything else here is refused.

cli.main runs in-process, so a traceback would fail the test as an
uncaught exception.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from hummingbird import cli

from test_scenario_fuzz import DELETED, VALUES, corrupted, places

CASES = json.loads((Path(__file__).parent / "vectors" / "packets.json").read_text())["cases"]
# Two segments, plain and flyover hops.
SPEC = json.dumps(CASES[1]["packet"])
HEX = CASES[1]["hex"]
# How the CLI begins each line that refuses an input.
REFUSALS = ("error: ", "bad packet spec: ", "undecodable packet: ")


def run_cli(capsys, *argv, stdin=""):
    sys.stdin = io.StringIO(stdin)
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdin = sys.__stdin__
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(result):
    code, out, err = result
    assert (code, out) == (2, ""), result
    assert err.startswith(REFUSALS) and err.count("\n") == 1 and err.endswith("\n"), result


def test_every_corrupted_spec_is_refused_or_round_trips(capsys):
    refused = accepted = 0
    for where in places(json.loads(SPEC)):
        for value in (DELETED, *VALUES):
            spec = corrupted(SPEC, where, value)
            result = run_cli(capsys, "packet", "encode", "--spec", "-", stdin=json.dumps(spec))
            if result[0] == 2:
                assert_refused(result)
                refused += 1
                continue
            code, out, err = result
            assert (code, err) == (0, ""), (where, value, result)
            back = run_cli(capsys, "packet", "decode", out.strip(), "--format", "records")
            assert back[0] == 0 and json.loads(back[1]) == spec, (where, value)
            accepted += 1
    # Every field is reached, and some corruptions are still valid packets.
    assert refused > 700 and accepted > 40


BAD_HEX = {
    "truncated": HEX[:-2],
    "one byte too long": HEX + "00",
    "odd length": HEX[:-1],
    "not hex": "zz" + HEX[2:],
}
GOOD_KEY = "00" * 16


@pytest.mark.parametrize("raw", BAD_HEX.values(), ids=BAD_HEX.keys())
@pytest.mark.parametrize("fmt", ["table", "records"])
def test_decode_refuses_bad_hex(capsys, raw, fmt):
    assert_refused(run_cli(capsys, "packet", "decode", raw, "--format", fmt))


def verify(capsys, raw, sv=GOOD_KEY, forwarding_key=GOOD_KEY):
    return run_cli(
        capsys, "packet", "verify", raw, "--sv", sv, "--forwarding-key", forwarding_key,
        "--now-ns", "1700000000000000000", "--format", "records",
    )


@pytest.mark.parametrize("raw", [BAD_HEX["odd length"], BAD_HEX["not hex"]],
                         ids=["odd length", "not hex"])
def test_verify_refuses_what_is_not_hex(capsys, raw):
    assert_refused(verify(capsys, raw))


@pytest.mark.parametrize("raw", [BAD_HEX["truncated"], BAD_HEX["one byte too long"]],
                         ids=["truncated", "one byte too long"])
def test_verify_drops_bytes_of_the_wrong_length(capsys, raw):
    code, out, err = verify(capsys, raw)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"verdict": "drop", "reason": "parse_error", "advanced": None}


@pytest.mark.parametrize("length", [0, 15, 17])
@pytest.mark.parametrize("key", ["sv", "forwarding_key"])
def test_verify_refuses_a_key_of_the_wrong_length(capsys, key, length):
    assert_refused(verify(capsys, HEX, **{key: "ab" * length}))
