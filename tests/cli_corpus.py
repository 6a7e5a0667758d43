"""A seeded corpus of CLI runs, summed up by one sha256.

    python3 tests/cli_corpus.py [SEED]

builds order files, equivariant-data files, ``cyclic`` argvs and usage-error
argvs from SEED (default 16), runs every case through ``tiledorder.cli.main``
in process, in a temporary directory with relative paths, and prints the
sha256 of (input text, argv, exit code, stdout, stderr, files written) over
all cases.  Two trees that print the same digest gave byte-identical output
on the corpus; a count of exit codes and error codes goes to stderr.

The corpus is built here from plain Python, without the package or the
other test modules, so the digest stays comparable while those change.  It
covers all eight commands: relabelled Morita-shifted cyclic and product
orders, single-entry nudges, relation-preserving perturbations (nu still
fits, the triangle may not), triangle violations whose columns fit no row or
several rows, structural and malformed files, files over the size limit,
equivariant data with and without negative cycles, and usage errors.  The
script asserts those kinds are present.  argparse's help and usage texts,
which the corpus includes, can differ between Python versions.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cyclic_rows(w):
    n, total = len(w), sum(w)
    prefix = [0]
    for x in w:
        prefix.append(prefix[-1] + x)
    return [
        [prefix[j] - prefix[i] + (total if j < i else 0) for j in range(n)]
        for i in range(n)
    ]


def product_rows(a, b):
    nb = len(b)
    return [
        [a[i // nb][j // nb] + b[i % nb][j % nb] for j in range(len(a) * nb)]
        for i in range(len(a) * nb)
    ]


def relabel_shift(rng, rows, spread):
    n = len(rows)
    perm = rng.sample(range(n), n)
    s = [rng.randint(-spread, spread) for _ in range(n)]
    return [[rows[perm[i]][perm[j]] + s[i] - s[j] for j in range(n)] for i in range(n)]


def violates_triangle(rows):
    n = len(rows)
    return any(
        rows[i][j] + rows[j][k] < rows[i][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


def fits(rows):
    """For each column i, the rows u with m(u,x) + m(x,i) constant in x."""
    n = len(rows)
    return [
        [u for u in range(n) if len({rows[u][x] + rows[x][i] for x in range(n)}) == 1]
        for i in range(n)
    ]


def fit_kind(rows):
    found = fits(rows)
    if any(not f for f in found):
        return "none"
    return "ambiguous" if any(len(f) > 1 for f in found) else "nu"


def relation_preserving(rng, rows, delta):
    """+-delta along an orbit of (x, y) -> (nu y, x), as tests/test_matrix_layer.py."""
    nu = [f[0] for f in fits(rows)]
    n = len(rows)
    a, b = rng.sample(range(n), 2)
    orbit = [(a, b)]
    while (step := (nu[orbit[-1][1]], orbit[-1][0])) != orbit[0]:
        orbit.append(step)
    if len(orbit) % 2 or any(x == y for x, y in orbit):
        return None
    out = [list(row) for row in rows]
    for t, (x, y) in enumerate(orbit):
        out[x][y] += delta if t % 2 == 0 else -delta
    return out


def matrix_text(rows):
    return json.dumps({"kind": "matrix", "m": rows})


def cyclic_text(weights):
    return json.dumps({"kind": "cyclic", "weights": weights})


def order_corpus(rng):
    """(label, file text) pairs for the order commands."""
    cases = []
    gorenstein = []
    for _ in range(120):
        w = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        cases.append(("cyclic", cyclic_text(w)))
        if any(w):
            rows = relabel_shift(rng, cyclic_rows(w), rng.choice((0, 2, 4)))
            gorenstein.append(rows)
    for _ in range(50):
        a = cyclic_rows([rng.randint(1, 2) for _ in range(rng.randint(1, 3))])
        b = cyclic_rows([rng.randint(0, 2) + 1 for _ in range(rng.randint(1, 3))])
        gorenstein.append(relabel_shift(rng, product_rows(a, b), rng.choice((0, 3))))
    for rows in gorenstein:
        cases.append(("gorenstein", matrix_text(rows)))
    for rows in rng.sample(gorenstein, 100):
        n = len(rows)
        if n < 2:
            continue
        i, j = rng.sample(range(n), 2)
        nudged = [list(row) for row in rows]
        nudged[i][j] += rng.choice((-2, -1, 1, 2))
        cases.append(("nudge", matrix_text(nudged)))
    for rows in gorenstein:
        if len(rows) > 1:
            bad = relation_preserving(rng, rows, rng.randint(1, 3))
            if bad is not None:
                cases.append(("relation", matrix_text(bad)))
    # triangle violations whose columns fit no row, or several rows
    wanted = {"none": 40, "ambiguous": 40}
    while any(wanted.values()):
        n = rng.randint(2, 4)
        rows = [[0 if i == j else rng.randint(-1, 2) for j in range(n)] for i in range(n)]
        kind = fit_kind(rows)
        if violates_triangle(rows) and wanted.get(kind, 0):
            wanted[kind] -= 1
            cases.append((f"triangle-{kind}", matrix_text(rows)))
    cases += [
        ("triangle-none", matrix_text([[0, 0, 0], [0, 0, 0], [1, 0, 0]])),
        ("triangle-ambiguous", matrix_text([[0, 0, 0], [0, 0, 0], [0, 1, 0]])),
        ("not-basic", matrix_text([[0, 0], [0, 0]])),
        ("not-gorenstein", matrix_text([[0, 1, 1], [1, 0, 1], [1, 1, 0]])),
        ("diagonal", matrix_text([[0, 1], [1, 2]])),
        ("huge", matrix_text([[0, 10**40], [10**40, 0]])),
        ("heavy", cyclic_text([600000, 0, 1])),
        ("heavy", cyclic_text([250, 250])),
        ("too-large", cyclic_text([1] * 257)),
        ("too-large", matrix_text([[0] * 2] * 257)),
        ("zero", cyclic_text([0, 0, 0])),
        ("malformed", '{"kind": "matrix", "m": [[0, 1], [1]]}'),
        ("malformed", '{"kind": "matrix", "m": [[0, true], [1, 0]]}'),
        ("malformed", '{"kind": "matrix", "m": [[0, 1.5], [1, 0]]}'),
        ("malformed", '{"kind": "cyclic", "weights": [1, -1]}'),
        ("malformed", '{"kind": "cyclic", "weights": []}'),
        ("malformed", '{"kind": "cyclic"}'),
        ("malformed", '{"kind": "poset"}'),
        ("malformed", "[1, 2]"),
        ("malformed", "{not json"),
        ("malformed", '{"kind": "cyclic", "weights": [' + "9" * 4301 + "]}"),
        ("malformed", "[" * 100000),
    ]
    return cases


def equivariant_corpus(rng, orders):
    """(label, file text) pairs for mdata-check and mdata-normalize."""
    cases = []
    for text in orders:
        rows = json.loads(text)["m"]
        found = fits(rows)
        if any(len(f) != 1 for f in found):
            continue
        nu = [f[0] for f in found]
        twist = [1 - rows[nu[i]][i] for i in range(len(rows))]  # the parameters p
        transpose = [list(col) for col in zip(*rows)]
        for m, a in ((transpose, [-x for x in twist]), (rows, twist)):
            cases.append(("data", json.dumps({"m": m, "a": a, "nu": nu})))
    for _ in range(60):  # identity nu: equivariant for a constant a
        n = rng.randint(1, 5)
        m = [[0 if i == j else rng.randint(-2, 3) for j in range(n)] for i in range(n)]
        a = [rng.randint(-2, 2)] * n
        if rng.random() < 0.2:
            a[rng.randrange(n)] += 1
        cases.append(("identity", json.dumps({"m": m, "a": a, "nu": list(range(n))})))
    cases += [
        ("negative-diagonal", '{"m": [[-1, 0], [0, 0]], "a": [0, 0], "nu": [0, 1]}'),
        ("malformed", '{"m": [[0, 1], [1, 0]], "a": [0], "nu": [1, 0]}'),
        ("malformed", '{"m": [[0, 1], [1, 0]], "a": [0, 0], "nu": [0, 0]}'),
        ("malformed", '{"m": [[0, 1], [1, 0]], "nu": [1, 0]}'),
        ("too-large", json.dumps({"m": [[0]] * 257, "a": [0], "nu": [0]})),
    ]
    return cases


def emit(rng):
    """``--emit out.json`` for half the runs."""
    return ["--emit", "out.json"] if rng.random() < 0.5 else []


def runs(rng):
    """(input text or None, argv) for every case of the corpus."""
    orders = order_corpus(rng)
    kinds = Counter(label for label, _ in orders)
    assert kinds["triangle-none"] > 20 and kinds["triangle-ambiguous"] > 20, kinds
    assert kinds["relation"] > 20 and kinds["nudge"] > 20, kinds
    for label, text in orders:
        yield text, ["validate", "in.json"]
        yield text, ["gorenstein", "in.json"]
        yield text, ["normalize", "in.json"] + emit(rng)
        yield text, ["tilting", "in.json"]
        quiver = ["quiver", "in.json"]
        if rng.random() < 0.4:
            quiver += ["--dot", "out.dot"]
        if label == "cyclic" or rng.random() < 0.1:
            quiver.append("--oracle")
        yield text, quiver
    matrices = [text for label, text in orders if label == "gorenstein"]
    for _, text in equivariant_corpus(rng, matrices):
        yield text, ["mdata-check", "md.json"]
        yield text, ["mdata-normalize", "md.json"] + emit(rng)
    for _ in range(30):
        weights = ",".join(str(rng.randint(0, 3)) for _ in range(rng.randint(1, 6)))
        yield None, ["cyclic", "--weights", weights] + emit(rng)
    for weights in ("0,0", "1,x", "-1,2", "", "1,,2"):
        yield None, ["cyclic", "--weights", weights]
    unwritable = cyclic_text([1, 1, 1])
    yield unwritable, ["normalize", "in.json", "--emit", "missing/out.json"]
    yield unwritable, ["quiver", "in.json", "--dot", "missing/out.dot"]
    yield None, ["cyclic", "--weights", "1,2", "--emit", "missing/out.json"]
    yield None, ["validate", "absent.json"]
    for argv in (
        [], ["bogus"], ["validate"], ["validate", "in.json", "extra"],
        ["validate", "in.json", "--bogus"], ["quiver", "in.json", "--oracle", "--oracle"],
        ["normalize", "in.json", "--emit"], ["cyclic"], ["cyclic", "--weights"],
        ["-h"], ["quiver", "-h"], ["normalize", "in.json", "--emit=out.json"],
        ["val", "in.json"], ["validate", "--", "in.json"],
    ):
        yield unwritable, argv


def run_one(main, text, argv):
    """Exit code, stdout, stderr and files written of main(argv) in the current directory."""
    for name in os.listdir():
        os.remove(name)
    if text is not None:
        with open("md.json" if argv and argv[0].startswith("mdata") else "in.json", "w") as fh:
            fh.write(text)
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    written = {}
    for name in sorted(set(os.listdir()) - before):
        with open(name, "rb") as fh:
            written[name] = fh.read().decode()
    return code, out.getvalue(), err.getvalue(), written


def main_corpus(seed):
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage text to it
    sys.path.insert(0, SRC)
    from tiledorder.cli import main

    digest = hashlib.sha256()
    exits, errors, count = Counter(), Counter(), 0
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for text, argv in runs(random.Random(seed)):
                code, out, err, written = run_one(main, text, argv)
                record = [text, argv, code, out, err, sorted(written.items())]
                digest.update(json.dumps(record).encode() + b"\n")
                count += 1
                exits[code] += 1
                if code == 1 or (code in (2, 3) and err.startswith("{")):
                    errors[json.loads(err.splitlines()[-1])["code"]] += 1
        finally:
            os.chdir(cwd)
    print(digest.hexdigest())
    print(f"{count} runs; exit codes {dict(sorted(exits.items(), key=str))}", file=sys.stderr)
    print(f"error codes {dict(errors.most_common())}", file=sys.stderr)


if __name__ == "__main__":
    main_corpus(int(sys.argv[1]) if len(sys.argv) > 1 else 16)
