"""Every scenario arm reproduces ``tests/data/golden_scenarios.json``.

The fixture was written by ``tests/golden_scenarios.py`` before the arms
became declarations read by one runner (incidents as data, one trace
walk), so equality here means the rework moved no traffic, no telemetry
and no bar: the fingerprint digest and every invariant's name, verdict,
bar and observed value match, per arm, at smoke and acceptance scale,
and the broken ``namespace_cache=False`` deployment still fails the
same bars.
"""

import json

from tests import golden_scenarios


def test_every_arm_reproduces_the_fixture():
    fixture = golden_scenarios.compute()
    rendered = golden_scenarios.render(fixture)
    # JSON is the only serialisation: reading it back must round-trip.
    assert json.loads(rendered) == json.loads(json.dumps(fixture))
    assert rendered == golden_scenarios.GOLDEN_PATH.read_text()
