"""The console rows of ``tests/console_rows.txt``, each run in process through ``cli.main``.

CI runs the same file through the installed ``trigwdvv`` script; here each row
must give its exit code without a warning from numpy, in one working directory,
so that the files a row writes with "> FILE" are there for the rows after it.
"""

import pathlib
import warnings

from trigwdvv.cli import main

ROWS = pathlib.Path(__file__).with_name("console_rows.txt")


def rows() -> list[tuple[int, list[str], str | None]]:
    """(expected exit code, arguments, the file that takes stdout or None) of each row, in order."""
    out = []
    for line in ROWS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            code, *argv = line.split()
            target = None
            if ">" in argv:
                argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
            out.append((int(code), argv, target))
    return out


def _failures(table, tmp_path, capsys) -> list:
    """(arguments, exit code, expected code, warnings) of each row of ``table`` that fails, run in order."""
    failures = []
    for expected, argv, target in table:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
        if code != expected or caught:
            failures.append((argv, code, expected, [str(w.message) for w in caught]))
    return failures


def test_every_console_row_gives_its_exit_code_without_a_warning(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _failures(rows(), tmp_path, capsys) == []


def test_the_rows_give_their_exit_codes_in_reverse_order(tmp_path, monkeypatch, capsys):
    # each row must give its code after whatever ran before it in the process:
    # here the rows run backwards, once the rows that write documents have written them
    monkeypatch.chdir(tmp_path)
    table = rows()
    assert _failures([row for row in table if row[2] is not None], tmp_path, capsys) == []
    assert _failures(table[::-1], tmp_path, capsys) == []


def test_the_rows_keep_their_count_and_their_documents():
    table = rows()
    assert len(table) == 40
    assert [t for _, _, t in table if t] == ["m122_r-20.json", "m122_r-19.json"]


def test_a_normalized_document_normalizes_to_itself(tmp_path, monkeypatch, capsys):
    # build-config --config prints a build-config document back byte for byte
    monkeypatch.chdir(tmp_path)
    _, argv, target = rows()[0]
    assert main(argv) == 0
    (tmp_path / target).write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["build-config", "--config", target]) == 0
    assert capsys.readouterr().out == (tmp_path / target).read_text(encoding="utf-8")
