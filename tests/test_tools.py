import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment after code counts


# A comment line does not.
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a string that is not a docstring
        counts on every line"""
        return (text,
                os.sep)
'''


def test_blank_comment_and_docstring_lines_are_not_counted():
    # import, class, def, the two lines of the string, the two of the return.
    assert code_lines.code_lines(SOURCE) == 7


def test_the_command_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["7", "1", "8"]
    assert out[-1].split()[1] == "total"
