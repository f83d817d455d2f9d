"""Seeded mutation sample: does a test subset notice a one-token change?

Each mutant changes one binary operator, one comparison or one numeric
constant of a module of `src/quantoda`, found with `ast`: + and -, * and /,
// and %, ** to *, < and <=, > and >=, == and !=, an int n to n + 1 and a
float c to 1.1 c (0.0 to 1.0).  The sample is drawn with the given seed from
every such site; with --changed REV, every site on a line that `git diff
-U0 REV` adds to the module is mutated instead (an operator's line lies
between its operands).  Each mutant runs the named tests with `pytest -x`
in a temporary copy of the checkout and survives when they all pass.  The
checkout itself is never edited.  Standard library only, and pytest does
not collect this file.  Run from the root of the checkout:

    python tests/mutants.py oracle --count 40 --seed 39 \\
        tests/test_oracle.py tests/test_acceptance.py tests/test_cli.py
    python tests/mutants.py gz --changed HEAD~1 tests/test_gz.py

Prints one line per survivor, `module.py:LINE  old -> new  in function`,
then the number killed.  The unmutated subset runs first and must pass.
Children run with one OpenBLAS thread and a 4 GiB address-space limit, so a
mutant that asks for a huge array fails fast instead of taking the host's
memory; a mutant past the time limit counts as killed.
"""

import argparse
import ast
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult}
COMPARES = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
          ast.Mod: "%", ast.Pow: "**", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
MEMORY_LIMIT = 4 * 2 ** 30
TIME_LIMIT = 600


def sites(tree):
    """(node, field, index, old, new) for every mutable token, in walk order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
            out.append((node, "op", None, type(node.op), BINOPS[type(node.op)]))
        elif isinstance(node, ast.Compare):
            out += [(node, "ops", i, type(op), COMPARES[type(op)])
                    for i, op in enumerate(node.ops) if type(op) in COMPARES]
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            v = node.value
            out.append((node, "value", None, v,
                        v + 1 if type(v) is int else (1.1 * v if v else 1.0)))
    return out


def site_lines(node, field, i):
    """The lines a site's token can lie on: a constant's own, an operator's
    from the end of its left operand to the start of its right one."""
    if field == "value":
        return range(node.lineno, node.end_lineno + 1)
    if field == "op":
        left, right = ((node.target, node.value) if isinstance(node, ast.AugAssign)
                       else (node.left, node.right))
    else:
        left, right = ([node.left] + node.comparators)[i], node.comparators[i]
    return range(left.end_lineno, right.lineno + 1)


def added_lines(path, rev):
    """Line numbers of `path` in the working tree that `git diff -U0 rev` adds."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", str(path)], check=True,
                          capture_output=True, text=True).stdout
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def mutant(source, k):
    """The source with site k changed, and a description of the change."""
    tree = ast.parse(source)
    owner = {id(c): n.name for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))
             for c in ast.walk(n)}
    node, field, i, old, new = sites(tree)[k]
    if field == "value":
        node.value = new
    elif field == "op":
        node.op = new()
    else:
        node.ops[i] = new()
    show = (lambda t: repr(t) if field == "value" else SYMBOL[t])
    where = f"{node.lineno}  {show(old)} -> {show(new)}  in {owner.get(id(node), '<module>')}"
    return ast.unparse(tree) + "\n", where


def run(root, tests):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=root, env=env,
                              capture_output=True, timeout=TIME_LIMIT,
                              preexec_fn=limit).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="a module of src/quantoda, such as oracle")
    ap.add_argument("tests", nargs="+", help="test files or node ids to run")
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--changed", metavar="REV",
                    help="mutate every site on the lines added since REV, not a sample")
    args = ap.parse_args()
    module = Path("src", "quantoda", f"{args.module}.py")
    if args.changed:
        added = added_lines(module, args.changed)
    with tempfile.TemporaryDirectory() as root:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(part, Path(root, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("pyproject.toml", root)
        target = Path(root, module)
        source = target.read_text()
        # the baseline runs the module as `ast.unparse` writes it, as every mutant
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        if run(root, args.tests) != 0:
            sys.exit("the unmutated tests fail: no sample taken")
        every = sites(ast.parse(source))
        n = len(every)
        if args.changed:
            picks = [k for k, (node, field, i, _, _) in enumerate(every)
                     if added.intersection(site_lines(node, field, i))]
        else:
            picks = sorted(random.Random(args.seed).sample(range(n), min(args.count, n)))
        survivors = 0
        for k in picks:
            text, where = mutant(source, k)
            target.write_text(text)
            code = run(root, args.tests)
            if code == 0:
                survivors += 1
                print(f"{args.module}.py:{where}", flush=True)
    drawn = f"lines added since {args.changed}" if args.changed else f"seed {args.seed}"
    print(f"{args.module}: {len(picks) - survivors} of {len(picks)} killed "
          f"({n} sites, {drawn})")


if __name__ == "__main__":
    main()
