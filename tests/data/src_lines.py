"""Report, per module of src/fractalssm/, its code lines and the statements
that no tier-1 test executes.

Code lines are the lines that hold code: blank lines, comments and
docstrings do not count.  Executed statements are found by a sys.settrace
hook around one in-process run of the tier-1 suite (pytest.main on tests/),
so code that runs only in a subprocess of a test is reported as unexecuted.
A compound statement (if, for, def, ...) counts as executed when its header
or any statement of its body runs; an `if __name__ == "__main__":` block,
which runs only as a script, is left out, and so is a statement or an except
clause whose first line carries a `# pragma: no cover` comment, with its body.
Needs only the standard library and pytest; run from anywhere, it prints the
pytest summary, then one line per module and the source line of each
unexecuted statement, and exits 1 if there is one, else 0:

    python tests/data/src_lines.py
"""

import ast
import io
import sys
import threading
import tokenize
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "fractalssm"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    """The number of lines that hold a token other than a comment, outside docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(tree))


def pragma_lines(source: str) -> set[int]:
    """The lines whose comment holds `pragma: no cover`."""
    return {token.start[0] for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT and "pragma: no cover" in token.string}


def is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def unexecuted(tree: ast.Module, hits: set[int], excluded: set[int]) -> list[int]:
    """First lines of the statements that no hit line reaches.  Docstrings are
    left out, and so is a statement or an except clause that starts on an
    excluded line, with its body."""
    docs = docstring_lines(tree)
    missed = []

    def executed(node: ast.stmt) -> bool:
        if node.lineno in excluded:
            return True
        compound = isinstance(getattr(node, "body", None), list)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = max(first, node.body[0].lineno - 1) if compound else node.end_lineno
        ran = any(line in hits for line in range(first, last + 1))
        if compound:   # a list, so that every child is visited
            ran = any([executed(child) for child in node.body]) or ran
        for field in ("orelse", "finalbody", "handlers"):
            for child in getattr(node, field, []):
                if isinstance(child, ast.stmt):
                    executed(child)
                elif child.lineno not in excluded:   # an except clause: its body
                    for grandchild in child.body:
                        executed(grandchild)
        if not ran and node.lineno not in docs:
            missed.append(node.lineno)
        return ran

    for node in tree.body:
        if not is_main_guard(node):   # runs only as a script, never in process
            executed(node)
    return sorted(missed)


def run_tier1() -> dict[str, set[int]]:
    """Line numbers hit per source file of the package during one tier-1 run."""
    prefix = str(PACKAGE) + "/"
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> int:
    hits = run_tier1()
    total_lines = total_missed = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        count = code_lines(source, tree)
        missed = unexecuted(tree, hits.get(str(path), set()), pragma_lines(source))
        total_lines += count
        total_missed += len(missed)
        report.append(f"{path.name:16s} {count:5d} code lines, {len(missed)} unexecuted")
        text = source.splitlines()
        report += [f"    {path.name}:{line}: {text[line - 1].strip()}" for line in missed]
    print("\n".join(report))
    print(f"{'total':16s} {total_lines:5d} code lines, {total_missed} unexecuted")
    return 1 if total_missed else 0


if __name__ == "__main__":
    sys.exit(main())
