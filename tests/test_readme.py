import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_library_example_prints_what_its_comments_say():
    # each top-level `expr  # value` line of the ```python block must give that
    # value: the comment up to its first ": ", read as a literal or else as str
    (source,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr) or statement.lineno not in comments:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        claimed = comments[statement.lineno].split(": ", 1)[0]
        try:
            assert ast.literal_eval(claimed) == value, (statement.lineno, claimed)
        except (ValueError, SyntaxError):
            assert claimed == str(value), (statement.lineno, claimed)
        checked += 1
    assert checked == 9
