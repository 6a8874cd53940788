"""Every text file call in the package names its encoding.

The abstract syntax trees of ``src/roadsurf/*.py`` are walked for calls of
``open``, ``read_text`` and ``write_text``, whether called by name or as an
attribute.  Each must pass ``encoding=``, so the locale cannot change what
is read or written.  ``read_bytes`` and ``write_bytes`` take none.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "roadsurf").glob("*.py"))
TEXT_CALLS = ("open", "read_text", "write_text")


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls_without_encoding(paths):
    """``module:line: name`` of each text file call in ``paths`` without an
    ``encoding`` keyword."""
    missing = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = sorted((node for node in ast.walk(tree) if isinstance(node, ast.Call)
                        and _called_name(node) in TEXT_CALLS), key=lambda node: node.lineno)
        missing += [f"{path.stem}:{call.lineno}: {_called_name(call)}" for call in calls
                    if not any(kw.arg == "encoding" for kw in call.keywords)]
    return missing


def test_every_text_file_call_names_its_encoding():
    assert calls_without_encoding(SOURCES) == []


def test_a_call_without_encoding_is_flagged(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from pathlib import Path\n"
        "open('a').read()\n"
        "open('a', encoding='utf-8').read()\n"
        "Path('a').write_text('x')\n"
        "Path('a').read_text(encoding='ascii')\n"
        "Path('a').read_bytes()\n"
        "with open('a', 'rb') as fh:\n    pass\n", encoding="utf-8")
    assert calls_without_encoding([source]) == [
        "mod:2: open", "mod:4: write_text", "mod:7: open"]
