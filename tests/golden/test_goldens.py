"""The committed golden outputs, regenerated in-process.

Rows and tables are compared as text (floats by ``repr``); the digests
catch what 4-dp rows cannot (see ``regenerate.py``).  A failure here means
a change moved a figure-8 or dynamics number: if that is intended, rewrite
the files with ``PYTHONPATH=src python tests/golden/regenerate.py`` and
review the diff.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

# The generator is a script, not a package module: load it by path.
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(HERE, "regenerate.py")
)
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _read(name: str) -> str:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name", list(regenerate.GOLDENS))
def test_golden(name):
    lines, table, digests = regenerate.generate(name)
    assert lines == _read(f"{name}.jsonl").splitlines()
    assert table == _read(f"{name}.txt")
    assert digests == json.loads(_read("digests.json"))[name]
