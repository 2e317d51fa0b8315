"""The argv contract in-process: every row of `argv_contract.ROWS`, one
golden per row, and README's command-line examples as rows."""

from pathlib import Path

import pytest

from argv_contract import GOLDEN, ROWS, check, run_in_process


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row):
    problems = check(row, run_in_process, write_missing=True)
    assert not problems, "\n".join(problems)


def test_one_golden_per_row():
    ids = [row.id for row in ROWS]
    assert len(set(ids)) == len(ids)
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(ids)


def test_readme_commands_are_rows():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line\n\n```bash\n")[1].split("```")[0]
    argvs = [line.split("#")[0].split()[1:] for line in block.splitlines()]
    assert argvs and all(line.startswith("linhyp ") for line in block.splitlines())
    assert [argv for argv in argvs if argv not in [row.argv for row in ROWS]] == []
