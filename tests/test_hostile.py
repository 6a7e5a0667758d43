"""A small seeded corpus of hostile but readable files, run through all eight
commands: every run must end in exit 0, 1 or 2 (a result, a domain
rejection or malformed input), never 3 (an internal failure), within a time
bound.

The files are cyclic orders, Morita-shifted matrices of them (negative
entries), the same with one entry raised past a triangle, and their
equivariant data, at magnitudes that give ``orders._packing`` fields of 1, 2,
4, 8 and more than 8 bytes, and entries just under the file reader's 4,300
digits.  Each file holds only integers the reader accepts, so every run
reaches the commands' own code.
"""

import random
import sys
import time

import pytest

from tiledorder import cyclic_order, orders
from tiledorder.cli import main
from tiledorder.conjugation import order_equivariant_data
from tiledorder.files import OrderSource, write_equivariant_file, write_order_file

DIGITS = 4300  # CPython's default limit, the reader's bound on an integer
SECONDS = 5.0  # per run; the slowest takes well under a second
# The largest entry per file: _packing's span 2 * (hi - lo) then needs 1, 2,
# 4, 8 and 13 bytes, and 10**4299 is as wide as a file entry gets.
MAGNITUDES = (20, 2**12, 2**28, 2**60, 2**100, 10 ** (DIGITS - 1))


def corpus(rng):
    """(name, kind, payload) for each file: kind "order" or "mdata"."""
    for top in MAGNITUDES:
        for n in (1, 3, 4):
            weights = [rng.randint(0, top // (n + 1)) for _ in range(n)]
            weights[0] += 1  # not all zero
            yield f"w{n}_{top.bit_length()}", "weights", weights
            m, g = cyclic_order(weights)
            shift = [rng.randint(-top // 4, top // 4) for _ in range(n)]
            shifted = orders.morita_shift(m, shift)
            yield f"m{n}_{top.bit_length()}", "order", shifted.rows
            if n > 2:  # raise an entry past a triangle
                raised = [list(row) for row in shifted.rows]
                raised[n - 1][0] += rng.randint(1, top)
                yield f"t{n}_{top.bit_length()}", "order", raised
            yield f"d{n}_{top.bit_length()}", "mdata", order_equivariant_data(m, g)
    # p_av = (3a + 1) / 3 with a numerator of DIGITS + 1 digits
    a = 4 * 10 ** (DIGITS - 1)
    yield "p_av", "weights", [a, a, a + 1]


def commands(kind, path):
    if kind == "mdata":
        return [["mdata-check", path], ["mdata-normalize", path]]
    return [
        ["validate", path],
        ["gorenstein", path],
        ["normalize", path],
        ["tilting", path],
        ["quiver", path, "--dot", path + ".dot"],
    ]


def test_hostile_corpus_never_exits_3(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGITS)
    codes, runs = set(), 0
    try:
        for name, kind, payload in corpus(random.Random(2719)):
            path = str(tmp_path / f"{name}.json")
            argvs = []
            if kind == "weights":
                write_order_file(path, OrderSource(kind="cyclic", weights=tuple(payload)))
                argvs.append(["cyclic", "--weights", ",".join(map(str, payload))])
            elif kind == "order":
                rows = tuple(map(tuple, payload))
                write_order_file(path, OrderSource(kind="matrix", matrix=rows))
            else:
                write_equivariant_file(path, payload)
            for argv in argvs + commands(kind, path):
                start = time.perf_counter()
                code = main(argv)
                took = time.perf_counter() - start
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv[0], name, err[-300:])
                assert took < SECONDS, (argv[0], name, took)
                codes.add(code)
                runs += 1
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == {0, 1}, codes  # every file is readable
    assert runs > 200


def test_p_av_too_long_to_print(tmp_path, capsys):
    """p_av's numerator has one digit more than str converts: TooLarge, exit
    1, witness null, nothing on stdout, for both commands that print it."""
    a = 4 * 10 ** (DIGITS - 1)
    path = tmp_path / "w.json"
    write_order_file(path, OrderSource(kind="cyclic", weights=(a, a, a + 1)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGITS)
    try:
        for command in ("gorenstein", "normalize"):
            code = main([command, str(path)])
            out, err = capsys.readouterr()
            assert (code, out) == (1, "")
            assert err.count("\n") == 1
            assert '"code": "TooLarge"' in err and '"witness": null' in err
            assert f"10**{DIGITS} or more" in err
    finally:
        sys.set_int_max_str_digits(limit)
