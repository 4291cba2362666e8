"""Byte-stability of the worked-example reports.

Each ``reproduce`` id's JSON report is pinned by its SHA-256.  The corpus
paths in ``provenance`` depend on where the package is installed, so the
package directory is replaced by ``<pkg>`` before hashing.  A change to the
arithmetic kernels or to the checks must leave every hash as it is.
"""

import hashlib
from importlib.resources import files

import pytest
from click.testing import CliRunner

from dendrikit.cli import REPRODUCERS, main

REPORT_SHA256 = {
    "ex-2.13": "2d811cfaf22a5c0bc8649a6a99be869ee33feae02f08e885d9718d6a3748a0a2",
    "ex-2.2": "c988cbefc1ab83028ac17291dbd741fb5bc713789754766e27ed7447cc3190cf",
    "ex-3.13": "06929ad6ef28230765837f1a48a2d00014c64a2b6401ed5e1ba095014b424070",
    "ex-4.2": "398c8ab5614c894476a9c2dd2ed004460c24efbd674f3f30841cb097c2c593ed",
    "ex-4.27": "64ca814925f475cfcdcf1fa60c93c1fa250d539c4d1764d740dcee2845d06dc0",
    "ex-4.5": "068d4ee5372d203afdefc1e4e9ba64513ae9278b65041c23d5a533984ef8d555",
    "ex-4.9": "7efccac7fbd88fcce6a3d08bfcdef7a793d74c85eb1f7c83f1f3d791a72b4cae",
    "ex-5.13": "e9f79b37b9db5224a727d7c1ecb1abf1c52fde9e3a6fecb140397b0484c0dd23",
}


def test_every_reproduce_id_is_pinned():
    assert set(REPORT_SHA256) == set(REPRODUCERS)


@pytest.mark.parametrize("example_id", sorted(REPORT_SHA256))
def test_reproduce_json_report_is_byte_stable(example_id):
    res = CliRunner().invoke(main, ["reproduce", example_id, "--format", "json"])
    assert res.exit_code == 0, res.output
    text = res.output.replace(str(files("dendrikit")), "<pkg>")
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[example_id]
