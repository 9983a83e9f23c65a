"""CLI outputs against the committed golden corpus, byte for byte.

The lines and the files they write are listed in tests/golden/regen.py,
which rewrites the corpus.  No BLAS or LAPACK call touches these outputs.
"""

import pytest

from golden.regen import GOLDEN, LINES, run


@pytest.mark.parametrize("argv, outputs", LINES, ids=[outputs[0] for _, outputs in LINES])
def test_cli_output_matches_golden_bytes(tmp_path, capsys, argv, outputs):
    code = run(argv, outputs, tmp_path)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == "" and captured.err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_golden_directory_holds_only_the_corpus():
    expected = {name for _, outputs in LINES for name in outputs} | {"regen.py"}
    assert {p.name for p in GOLDEN.iterdir() if p.name != "__pycache__"} == expected
