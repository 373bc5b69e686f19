"""Plain-text tensor files and the random instance generator.

File format (whitespace separated, ``#`` starts a comment anywhere)::

    m                     # order
    N_1 N_2 ... N_m       # dimensions
    i_1 i_2 ... i_m v     # one entry per line, indices ONE-based

Indices are one-based on disk and on the command line; the in-memory
representation is zero-based, converted exactly here.  ``write_tensor``
emits values through ``repr``, so a write/parse round trip reproduces the
tensor bit for bit.

``parse_tensor`` reads the order and dimension lines itself, then hands the
entry lines, split as ``str.splitlines`` splits them, to one ``np.loadtxt``
call (numpy's C parser), a chunk of lines at a time so that the text is
never held twice.  The per-line loop ``_parse_entries`` runs instead when
the text is not pure ASCII (``np.loadtxt`` reads some non-ASCII letters as
digits), and whenever ``np.loadtxt`` or the entry checks reject the text.
It is the one place that names the offending line, and it also accepts the
forms Python's ``int``/``float`` take and ``np.loadtxt`` does not, such as
``1_0``; an integer beyond int64 is a ``BadIndex`` there.  Both paths
accept the same texts and build the same tensor, bit for bit.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import (
    BadDensity,
    BadHeader,
    BadIndex,
    NegativeValue,
    ParseError,
)
from .tensor_core import CooTensor

__all__ = [
    "parse_tensor",
    "write_tensor",
    "parse_partition",
    "parse_p",
    "random_tensor",
]


#: Characters of text split into lines at a time on the bulk path.
_CHUNK_CHARS = 1 << 16


def _lines(text: str):
    """The lines of ``text`` exactly as ``text.splitlines()`` gives them,
    split one chunk ending in ``\n`` at a time so that only that chunk's
    lines are held at once."""

    def chunks():
        start = 0
        while start < len(text):
            end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
            yield text[start:end]
            start = end

    return chain.from_iterable(map(str.splitlines, chunks()))


def _significant_lines(lines, start: int = 1):
    """Yield ``(lineno, tokens)`` for lines that carry content; the first of
    ``lines`` is line ``start``."""
    for lineno, raw in enumerate(lines, start=start):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def parse_tensor(source) -> CooTensor:
    """Parse a tensor from a string or a readable file object.

    Raises :class:`~specrad.errors.BadHeader` for a malformed order or
    dimension line, :class:`~specrad.errors.BadIndex` for out-of-range
    (one-based) indices, :class:`~specrad.errors.NegativeValue` for negative
    entries, and :class:`~specrad.errors.ParseError` for anything else, all
    tagged with the offending line number.
    """
    text = source.read() if hasattr(source, "read") else source
    lines = _lines(text)
    header = _significant_lines(lines)

    try:
        lineno, tokens = next(header)
    except StopIteration:
        raise BadHeader("empty tensor file") from None
    if len(tokens) != 1:
        raise BadHeader(f"line {lineno}: order line must hold a single integer")
    try:
        m = int(tokens[0])
    except ValueError:
        raise BadHeader(f"line {lineno}: order {tokens[0]!r} is not an integer") from None
    if m < 1:
        raise BadHeader(f"line {lineno}: order must be positive, got {m}")

    try:
        lineno, tokens = next(header)
    except StopIteration:
        raise BadHeader("missing dimension line") from None
    if len(tokens) != m:
        raise BadHeader(
            f"line {lineno}: expected {m} dimensions, got {len(tokens)}"
        )
    try:
        dims = tuple(int(t) for t in tokens)
    except ValueError:
        raise BadHeader(f"line {lineno}: dimensions must be integers") from None
    if any(n < 1 for n in dims):
        raise BadHeader(f"line {lineno}: dimensions must be positive, got {dims}")

    # ``lines`` now stands right after the dimension line, line ``lineno``.
    if text.isascii():
        tensor = _bulk_entries(lines, dims)
        if tensor is not None:
            return tensor
    return _parse_entries(text.splitlines()[lineno:], dims, lineno + 1)


def _bulk_entries(lines, dims) -> CooTensor | None:
    """The tensor whose entries are ``lines``, read by one ``np.loadtxt``
    call, or ``None`` when ``np.loadtxt`` or the tensor's own index, value
    and sign checks reject them."""
    m = len(dims)
    fields = [(f"i{k}", np.int64) for k in range(m)] + [("v", np.float64)]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rec = np.loadtxt(lines, dtype=fields, comments="#", ndmin=1)
    except ValueError:
        return None
    # The record is m int64 indices and one float64 value, packed.
    idx = rec.view(np.int64).reshape(-1, m + 1)[:, :m] - 1
    try:
        return CooTensor(dims, idx, rec["v"])
    except (ValueError, BadIndex, NegativeValue):
        return None


def _parse_entries(lines, dims, start: int) -> CooTensor:
    """The tensor whose entries are ``lines``, the first of which is line
    ``start``, parsed line by line; raises on the first bad line, naming it."""
    m = len(dims)
    idx_rows: list[list[int]] = []
    vals: list[float] = []
    for lineno, tokens in _significant_lines(lines, start):
        if len(tokens) != m + 1:
            raise ParseError(
                f"line {lineno}: expected {m} indices and a value, "
                f"got {len(tokens)} fields"
            )
        try:
            coord = [int(t) for t in tokens[:m]]
        except ValueError:
            raise ParseError(f"line {lineno}: indices must be integers") from None
        for k, (i, n) in enumerate(zip(coord, dims)):
            if not 1 <= i <= n:
                raise BadIndex(
                    f"line {lineno}: mode-{k + 1} index {i} outside 1..{n}"
                )
        try:
            v = float(tokens[m])
        except ValueError:
            raise ParseError(
                f"line {lineno}: value {tokens[m]!r} is not a number"
            ) from None
        if not math.isfinite(v):
            raise ParseError(f"line {lineno}: value must be finite, got {v}")
        if v < 0.0:
            raise NegativeValue(f"line {lineno}: negative entry {v}")
        idx_rows.append([i - 1 for i in coord])
        vals.append(v)

    return CooTensor(dims, idx_rows, vals)


def write_tensor(tensor: CooTensor, stream=None) -> str:
    """Serialize a tensor to the text format (one-based indices, canonical
    entry order, ``repr`` values for exact round trips).  Returns the text;
    also writes it to ``stream`` when given."""
    entry = " ".join(["%d"] * tensor.order) + " %r"
    out = [str(tensor.order), " ".join(str(n) for n in tensor.dims)]
    out += [
        entry % (*row, v)
        for row, v in zip((tensor.indices + 1).tolist(), tensor.values.tolist())
    ]
    text = "\n".join(out) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def parse_partition(text: str) -> list[list[int]]:
    """Parse a partition spec like ``"1;2,3"`` (one-based modes, blocks
    separated by ``;``) into zero-based block lists."""
    blocks: list[list[int]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise ParseError(f"empty block in partition spec {text!r}")
        try:
            modes = [int(t) for t in part.split(",")]
        except ValueError:
            raise ParseError(
                f"partition spec {text!r} has a non-integer mode"
            ) from None
        if any(q < 1 for q in modes):
            raise ParseError(f"partition modes are one-based, got {modes}")
        blocks.append([q - 1 for q in modes])
    return blocks


def parse_p(text: str) -> tuple[tuple[float, ...], tuple[Fraction, ...]]:
    """Parse exponents like ``"2,4"`` or ``"5/2,3"``; every entry is kept as
    an exact rational alongside its float value."""
    floats: list[float] = []
    exact: list[Fraction] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError(f"empty exponent in {text!r}")
        try:
            fr = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"exponent {tok!r} is not a number or ratio") from None
        floats.append(float(fr))
        exact.append(fr)
    return tuple(floats), tuple(exact)


#: Guard against enumerating astronomically many cells in random_tensor.
MAX_RANDOM_CELLS = 2_000_000


def random_tensor(dims, density: float, seed: int) -> CooTensor:
    """Deterministic random nonnegative tensor.

    Fills ``round(density * prod(dims))`` distinct cells (at least one) with
    values uniform in ``(0, 1]``, then tops up so every slice of the first
    mode holds at least one entry.  The same seed always produces the same
    tensor, entry for entry.
    """
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"dims must be positive integers, got {dims}")
    if not 0.0 < density <= 1.0:
        raise BadDensity(f"density must lie in (0, 1], got {density}")
    total = math.prod(dims)
    if total > MAX_RANDOM_CELLS:
        raise ValueError(
            f"random generation supports up to {MAX_RANDOM_CELLS} cells, "
            f"got {total}"
        )
    rng = np.random.default_rng(seed)
    k = max(1, int(round(density * total)))
    flat = np.sort(rng.choice(total, size=k, replace=False))
    idx = np.stack(np.unravel_index(flat, dims), axis=1)
    vals = 1.0 - rng.random(k)
    present = set(idx[:, 0].tolist())
    extra_rows = []
    extra_vals = []
    for j in range(dims[0]):
        if j not in present:
            coord = [j] + [int(rng.integers(0, n)) for n in dims[1:]]
            extra_rows.append(coord)
            extra_vals.append(1.0 - rng.random())
    if extra_rows:
        idx = np.vstack([idx, np.asarray(extra_rows, dtype=np.int64)])
        vals = np.concatenate([vals, extra_vals])
    return CooTensor(dims, idx, vals)
