"""Seeded corruption fuzz of the scenario schema.

Every bundled scenario is corrupted one field at a time: each leaf and
each container (object or list) is deleted or set to each of VALUES.
validate_scenario must refuse a corruption with a ScenarioError or return
a scenario whose flows all send packets at least 1 ns apart.  From a
seeded sample of the accepted ones the network is built, and set-up may
raise only a ScenarioError, which `hummingbird run` reports with exit 2.

No corrupted scenario is run: the schema bounds what set-up sizes (the
policer by MAX_IDS, every number within 1e15) and how many packets a run
sends (MAX_PACKETS), but an accepted corruption may still ask for a run
of minutes.
"""

import json
from random import Random

import pytest

from hummingbird.sim import (
    NS_PER_S,
    Network,
    ScenarioError,
    bundled_scenarios,
    validate_scenario,
)

VALUES = (None, True, "x", [], {}, -1, 0, 0.5, 10**30, 1e300)
DELETED = object()
SETUP_SAMPLE = 300


def places(node, where=()):
    """The key path of every leaf and container below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield where + (key,)
        if isinstance(child, (dict, list)):
            yield from places(child, where + (key,))


def corrupted(text: str, where: tuple, value):
    scenario = json.loads(text)
    *parents, key = where
    record = scenario
    for step in parents:
        record = record[step]
    if value is DELETED:
        del record[key]
    else:
        record[key] = value
    return scenario


@pytest.fixture(scope="module")
def outcomes():
    """(corruption, what validate_scenario returned or raised) for each
    corruption of each bundled scenario."""
    out = []
    for name, text in bundled_scenarios().items():
        for where in places(json.loads(text)):
            for value in (DELETED, *VALUES):
                case = (name, where, value)
                try:
                    out.append((case, validate_scenario(corrupted(text, where, value))))
                except Exception as exc:  # judged by the tests below
                    out.append((case, exc))
    return out


def test_validation_raises_only_scenario_errors(outcomes):
    assert len(outcomes) > 6000
    crashes = [
        (case, result)
        for case, result in outcomes
        if isinstance(result, Exception) and not isinstance(result, ScenarioError)
    ]
    assert crashes == []
    # The fuzz reaches past the type checks: some corruptions pass.
    assert sum(isinstance(result, dict) for _, result in outcomes) > 300


def test_every_accepted_flow_sends_at_least_1_ns_apart(outcomes):
    for case, result in outcomes:
        if isinstance(result, dict):
            for flow in result["flows"]:
                if flow["kind"] != "replay_on_reservation_set":
                    rate_bps = round(flow["rate_mbps"] * 1_000_000)
                    assert flow["packet_bytes"] * 8 * NS_PER_S // rate_bps >= 1, case


def test_setup_raises_only_exit_2_errors(outcomes, bounded_policer):
    accepted = [case for case, result in outcomes if isinstance(result, dict)]
    texts = bundled_scenarios()
    crashes = []
    for case in Random("scenario fuzz").sample(accepted, SETUP_SAMPLE):
        name, where, value = case
        try:
            Network(corrupted(texts[name], where, value), 1)
        except ScenarioError:
            pass
        except Exception as exc:  # collected so that one run reports them all
            crashes.append((case, exc))
    assert crashes == []
