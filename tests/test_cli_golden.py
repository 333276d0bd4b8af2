"""CLI stdout and exit codes pinned byte for byte on the reference problems.

The cases and the regeneration script live in tests/cli_golden.py.
"""

import json

import pytest

from cli_golden import CASES, EXIT_CODES, first_difference, golden_path, run_case


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_golden")


@pytest.mark.parametrize("name", list(CASES))
def test_cli_stdout_is_pinned(name, workdir):
    code, stdout = run_case(name, workdir)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    diff = first_difference(golden_path(name).read_bytes(), stdout)
    assert not diff, f"{name}: {diff}"


def test_every_fixture_belongs_to_a_case():
    files = {path.name for path in golden_path("x").parent.iterdir()} - {EXIT_CODES.name}
    assert files == {golden_path(name).name for name in CASES}
    assert set(json.loads(EXIT_CODES.read_text())) == set(CASES)


def test_first_difference_names_the_byte_and_its_neighbourhood():
    assert first_difference(b"abc", b"abc") == ""
    diff = first_difference(b'{"x_norm": 0.5}', b'{"x_norm": 0.6}')
    assert "first difference at byte 13" in diff and "0.6" in diff
    assert "at byte 3" in first_difference(b"abc", b"abcd")
