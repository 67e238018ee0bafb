"""The `python` code blocks of README.md run as written: in order, in one
namespace, from a directory holding the `extra.lex` word file that the
`load_word_file` example opens."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) >= 4
    (tmp_path / "extra.lex").write_text("noun cat\n")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        lines_before = text.count("\n", 0, block.start(1))     # tracebacks give README's lines
        exec(compile("\n" * lines_before + block[1], str(README), "exec"), namespace)
    assert namespace["resolved"] == "(~ Ex y. (car y & own j y)) & red j"
