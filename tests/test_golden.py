"""Replay the recorded command-line cases of tests/golden.json.

Every case must give the recorded exit code, stdout (by sha256) and
stderr, byte for byte.  tests/make_golden.py regenerates the file; a
change that alters an output regenerates it and names each changed case.
"""

import json

import pytest

from make_golden import GOLDEN, replay

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_case_names_are_unique():
    names = [case["name"] for case in CASES]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(tmp_path, case):
    got = replay(case, str(tmp_path))
    assert got == {key: case[key] for key in ("exit", "stdout_sha256", "stderr")}
