"""The README's library quick tour runs, and each value its comments state
holds."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    """The python block under the README's "## Library quick tour"."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_quick_tour_runs_as_stated():
    # runs the block statement by statement and keeps the value of each bare
    # expression, the lines whose comments state a value: prism(5)'s sm and
    # best_sm_lower, the certificate's verdict, K4's eps, S and T, and the
    # n <= 5 graphs with df != ceil(sm/2)
    namespace: dict = {}
    values = []
    for stmt in ast.parse(_quick_tour()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [5, 5, True, (5, (1, 2, 3, 4), (3, 4, 5, 6, 7)), ("Du[",)]
