"""Seeded inputs and an independent numpy oracle for the benchmark.

Columns live client-side as packed little-endian ``uint64`` words: bit
*i* of a column is bit ``i % 64`` of word ``i // 64``, the order the
binary wire and the service's column store use.  Queries are small
ASTs of nested tuples; :func:`render` turns one into the service's
query text and :func:`evaluate` computes its answer with numpy, without
touching the service's parser or compiler.

AST nodes::

    ("col", name)                 a column
    ("not", node)
    ("and" | "or" | "xor", a, b)
    ("maj", a, b, c)
    ("match", (name, ...), key)   key like "1x0": x is a don't-care
"""

from __future__ import annotations

import random

import numpy as np

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BINARY = ("and", "or", "xor")
_SYMBOL = {"and": "&", "or": "|", "xor": "^"}


def make_columns(seed: int, names, n_bits: int) -> dict[str, np.ndarray]:
    """Seeded packed columns with 1-densities of 1/4, 1/2 or 3/4."""
    if n_bits % 64:
        raise ValueError("n_bits must be a multiple of 64")
    rng = np.random.default_rng(seed)
    words = n_bits // 64
    columns = {}
    for index, name in enumerate(names):
        base = rng.integers(0, 1 << 64, size=words, dtype=np.uint64)
        shape = index % 3
        if shape:
            other = rng.integers(0, 1 << 64, size=words, dtype=np.uint64)
            base = base & other if shape == 1 else base | other
        columns[name] = base
    return columns


def unpack(words: np.ndarray) -> np.ndarray:
    """Packed words -> one uint8 0/1 per bit."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")


def pack(bits: np.ndarray) -> np.ndarray:
    """0/1 bits (length a multiple of 64) -> packed words."""
    return np.packbits(np.asarray(bits, dtype=np.uint8),
                       bitorder="little").view(np.uint64)


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def render(node) -> str:
    kind = node[0]
    if kind == "col":
        return node[1]
    if kind == "not":
        return "~" + render(node[1])
    if kind in _BINARY:
        return f"({render(node[1])} {_SYMBOL[kind]} {render(node[2])})"
    if kind == "maj":
        return "maj(" + ", ".join(render(a) for a in node[1:]) + ")"
    if kind == "match":
        return f"match({', '.join(node[1])}, 0b{node[2]})"
    raise ValueError(f"unknown node {kind!r}")


def normal_form(node) -> str:
    """Text that is equal for expressions equal up to operand order,
    used to keep a query stream from repeating itself."""
    kind = node[0]
    if kind in _BINARY or kind == "maj":
        args = sorted(normal_form(arg) for arg in node[1:])
        return f"{kind}({','.join(args)})"
    if kind == "not":
        return f"~{normal_form(node[1])}"
    if kind == "match":
        pairs = sorted(zip(node[1], node[2]))
        return "match(" + ",".join(f"{c}={b}" for c, b in pairs) + ")"
    return node[1]


def evaluate(node, columns) -> np.ndarray:
    """Packed words of the node's value over ``columns``."""
    kind = node[0]
    if kind == "col":
        return columns[node[1]]
    if kind == "not":
        return ~evaluate(node[1], columns)
    if kind == "and":
        return evaluate(node[1], columns) & evaluate(node[2], columns)
    if kind == "or":
        return evaluate(node[1], columns) | evaluate(node[2], columns)
    if kind == "xor":
        return evaluate(node[1], columns) ^ evaluate(node[2], columns)
    if kind == "maj":
        a, b, c = (evaluate(arg, columns) for arg in node[1:])
        return (a & b) | (a & c) | (b & c)
    if kind == "match":
        out = None
        for name, bit in zip(node[1], node[2]):
            if bit == "x":
                continue
            term = columns[name] if bit == "1" else ~columns[name]
            out = term if out is None else out & term
        if out is None:
            return np.full_like(next(iter(columns.values())), _ALL_ONES)
        return out
    raise ValueError(f"unknown node {kind!r}")


def count(node, columns) -> int:
    """The oracle's answer: rows where the node is 1."""
    return popcount(evaluate(node, columns))


def random_key(rng: random.Random, width: int) -> str:
    """A ternary key with at least one cared position."""
    while True:
        key = "".join(rng.choice("01x") for _ in range(width))
        if key.strip("x"):
            return key


def random_expr(rng: random.Random, names, n_cols: int,
                match_share: float = 0.15):
    """An expression over ``n_cols`` distinct columns of ``names``,
    combined with ``& | ^ ~ maj``; with probability ``match_share``
    two or three of the columns enter through one ``match(...)``."""
    cols = rng.sample(list(names), n_cols)
    nodes = []
    if n_cols >= 3 and rng.random() < match_share:
        width = rng.choice((2, 3)) if n_cols > 3 else 2
        group, cols = cols[:width], cols[width:]
        nodes.append(("match", tuple(group), random_key(rng, width)))
    for name in cols:
        leaf = ("col", name)
        nodes.append(("not", leaf) if rng.random() < 0.3 else leaf)
    while len(nodes) > 1:
        rng.shuffle(nodes)
        if len(nodes) >= 3 and rng.random() < 0.2:
            node = ("maj", nodes.pop(), nodes.pop(), nodes.pop())
        else:
            node = (rng.choice(_BINARY), nodes.pop(), nodes.pop())
        if rng.random() < 0.15:
            node = ("not", node)
        nodes.append(node)
    return nodes[0]
