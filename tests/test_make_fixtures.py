"""scripts/make_fixtures.py regenerates fixtures/ byte for byte."""

import os
import sys

from conftest import FIXTURES

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
import make_fixtures  # noqa: E402


def test_make_fixtures_regenerates_every_fixture_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_fixtures, "FIXTURES", str(tmp_path))
    make_fixtures.main()
    capsys.readouterr()
    names = sorted(os.listdir(FIXTURES))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(FIXTURES, name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name
