"""Golden-output gate: the nine verify reports of ``verify all --seed 7``
must serialize byte for byte as the committed files in ``tests/data``.

The files were written by the kernel these reports predate, so a
rewrite of the symbolic or truncated layers that changes any reported
value, count or flag fails here.  To regenerate after an intended
change of a report, write ``json.dumps(report, sort_keys=True,
default=str)`` plus a newline to the matching file.
"""

import json
from pathlib import Path

import pytest

from fockboundary import verify

DATA = Path(__file__).parent / "data"


def serialize(report):
    return json.dumps(report, sort_keys=True, default=str) + "\n"


def golden(name):
    return (DATA / ("%s_seed7.json" % name)).read_text()


def test_multiplications(multiplications_report):
    assert serialize(multiplications_report) == golden("multiplications")


def test_quantize(quantize_report):
    assert serialize(quantize_report) == golden("quantize")


@pytest.mark.parametrize("name", [
    "relations", "phi", "delta", "masa", "dr", "harmonic", "cesaro",
])
def test_suite(name):
    assert serialize(verify.run_suite(name, seed=7)) == golden(name)
