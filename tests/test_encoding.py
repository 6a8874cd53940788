"""Every file call in the package names its encoding and has one owner.

The abstract syntax trees of ``src/roadsurf/*.py`` are walked for calls of
``open``, ``read_text``, ``write_text``, ``read_bytes`` and ``write_bytes``,
whether called by name or as an attribute.  They may appear only inside
``grid.read_lines`` and ``grid.write_lines``, so every text file goes
through the one reader and the one writer.  Each call of ``open``,
``read_text`` or ``write_text`` must also pass ``encoding=``, so the locale
cannot change what is read or written.  ``read_bytes`` and ``write_bytes``
take none.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "roadsurf").glob("*.py"))
TEXT_CALLS = ("open", "read_text", "write_text")
FILE_CALLS = TEXT_CALLS + ("read_bytes", "write_bytes")
# (module, top-level function) of the only places a file call may appear
OWNERS = {("grid", "read_lines"), ("grid", "write_lines")}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree, names):
    return sorted((node for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and _called_name(node) in names), key=lambda node: node.lineno)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def calls_without_encoding(paths):
    """``module:line: name`` of each text file call in ``paths`` without an
    ``encoding`` keyword."""
    missing = []
    for path in paths:
        missing += [f"{path.stem}:{call.lineno}: {_called_name(call)}"
                    for call in _calls(_parse(path), TEXT_CALLS)
                    if not any(kw.arg == "encoding" for kw in call.keywords)]
    return missing


def calls_outside_owners(paths):
    """``module:line: name`` of each file call in ``paths`` outside the
    functions of OWNERS."""
    outside = []
    for path in paths:
        tree = _parse(path)
        owned = {id(node) for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
                 and (path.stem, stmt.name) in OWNERS for node in ast.walk(stmt)}
        outside += [f"{path.stem}:{call.lineno}: {_called_name(call)}"
                    for call in _calls(tree, FILE_CALLS) if id(call) not in owned]
    return outside


def test_every_text_file_call_names_its_encoding():
    assert calls_without_encoding(SOURCES) == []


def test_only_the_line_reader_and_writer_touch_files():
    assert calls_outside_owners(SOURCES) == []


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
    grid = tmp_path / "grid.py"
    grid.write_text(
        "def read_lines(path):\n    return path.read_bytes()\n"
        "def write_lines(path, text):\n    path.write_text(text, encoding='utf-8')\n"
        "def save(path):\n    path.write_bytes(b'')\n", encoding="utf-8")
    assert calls_outside_owners([grid, source]) == [
        "grid:6: write_bytes", "mod:2: open", "mod:3: open", "mod:4: write_text",
        "mod:5: read_text", "mod:6: read_bytes", "mod:7: open"]
