"""Shared domain types: request traces, cache sets, hit records, seeded RNG.

File identifiers are 0-based everywhere inside the library. Trace files on
disk may declare 1-based ids via their header and are shifted on load.
The records here and in `fsm`, `sage` and `harness` are plain slotted classes.

Reproducibility contract
------------------------
Every randomized policy owns exactly one `SplitMix64` generator seeded at
construction, and consumes draws in a fixed, documented order: one uniform
per cache sample (see `sage._madow_walk`), nothing else. A seed draws
exactly one `next_float` value per round, in the same order, whether a
policy built with it runs under `replay` or the seed is one lane of
`sage.lockstep_replay`, so both give the same hits. A lane reads those
values from the bulk `floats` stream of its own `SplitMix64(seed)`, which
yields the `next_float` sequence itself, block by block. The experiment
harness may run different policies in different processes, and under
fixed eta ranges of one policy's rounds, each range's lanes from their
generators' `skip` to its first round. No draw depends on the process,
so a run's results do not depend on how many CPUs it uses. The trace
generator's draw schedule is documented in `datagen`. SplitMix64 is a
well-known, portable 64-bit generator, so seeds transfer across
implementations; the algorithm is restated in full in `SplitMix64`.
"""

from __future__ import annotations

import struct
from itertools import chain


class UniCacheError(Exception):
    """Base class for all library errors."""


class DomainError(UniCacheError):
    """An argument is outside its documented domain (bad id, size, state)."""


class NumericError(UniCacheError):
    """A floating-point computation left its supported range."""


class DataError(UniCacheError):
    """A trace or machine file failed to load; message includes the location."""


class ConfigError(UniCacheError):
    """An experiment configuration is malformed; message names the key."""


_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state step, the state's only change per draw

# The packed-block kernel: draw t of a block (t = 0, 1, ..) sits in bits
# [128 t, 128 t + 64) of one int. The wide slots keep every state sum
# (< 2**73) and every 64 x 64-bit product (< 2**128) out of the next slot.
# Each open stream of draws holds one block, so a lockstep run holds one
# per lane: 256 draws keep 20 lanes well inside the lane memory test, where
# 1,024 do not.
_BLOCK = 256
_ONES = sum(1 << 128 * t for t in range(_BLOCK))
_RAMP = sum((t + 1) * GAMMA << 128 * t for t in range(_BLOCK))  # slot t: (t + 1) * GAMMA
_LOW = _ONES * _MASK64  # the low 64 bits of every slot
_UNPACK = struct.Struct("<" + "Q8x" * _BLOCK)


def _packed_outputs(state: int, count: int, shift: int):
    """The `count` output words that follow `state`, each shifted right by
    `shift` (< 33), as blocks of at most `_BLOCK` ints."""
    for done in range(0, count, _BLOCK):
        z = (_ONES * ((state + done * GAMMA) & _MASK64) + _RAMP) & _LOW
        z = ((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
        z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
        # Bits 64..95 of each slot are clear here, so shifts below 33 keep
        # the next slot's bits out of the low 64.
        z = (z ^ (z >> 31)) >> shift
        n = count - done
        unpack = _UNPACK if n >= _BLOCK else struct.Struct("<" + "Q8x" * n)
        yield unpack.unpack_from(z.to_bytes(16 * _BLOCK, "little"))


class SplitMix64:
    """SplitMix64 pseudorandom generator (Steele, Lea & Flood's mixer).

    State update and output, all in 64-bit wrapping arithmetic:

        state += 0x9E3779B97F4A7C15    (GAMMA)
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        output = z ^ (z >> 31)

    `next_float` takes the top 53 bits of an output word, giving a uniform
    draw in [0, 1). `next_below(n)` reduces an output word modulo n; the
    modulo bias is below n / 2**64 and is accepted for the sake of a
    one-line cross-language definition.

    The state after t draws is seed + t * GAMMA, so `floats(count)` and
    `below(n, count)` draw blocks of states at once: each packs a block of
    consecutive states into one int and mixes them all with one run of the
    steps above. They yield exactly what `count` calls of `next_float` or
    `next_below(n)` would, in the same order, and move the generator past
    all `count` draws when called, before the first value is read.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def skip(self, draws: int) -> None:
        """Jump to where `draws` more draws would leave the generator."""
        self._state = (self._state + draws * GAMMA) & _MASK64

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise DomainError(f"next_below needs n >= 1, got {n}")
        return self.next_u64() % n

    def floats(self, count: int):
        """An iterator over the next `count` `next_float` values."""
        return self._bulk(count, 11, (2.0**-53).__mul__)

    def below(self, n: int, count: int):
        """An iterator over the next `count` `next_below(n)` values."""
        if n <= 0:
            raise DomainError(f"next_below needs n >= 1, got {n}")
        return self._bulk(count, 0, n.__rmod__)

    def _bulk(self, count: int, shift: int, convert):
        state = self._state
        self.skip(count)
        return chain.from_iterable(map(convert, block)
                                   for block in _packed_outputs(state, count, shift))


class RequestTrace:
    """An ordered sequence of file requests over a library of `n_files` files."""

    __slots__ = ("n_files", "requests")

    def __init__(self, n_files: int, requests: list[int]):
        if n_files < 1:
            raise DomainError(f"library size must be >= 1, got {n_files}")
        # min/max run in C; the loop only names the first bad round.
        if requests and (min(requests) < 0 or max(requests) >= n_files):
            for t, x in enumerate(requests):
                if not 0 <= x < n_files:
                    raise DomainError(f"request {x} at round {t} outside [0, {n_files})")
        self.n_files, self.requests = n_files, requests

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


class CacheSet:
    """A set of distinct file ids held in cache, with its library size."""

    __slots__ = ("files", "n_files")

    def __init__(self, files: frozenset[int], n_files: int):
        for f in files:
            if not 0 <= f < n_files:
                raise DomainError(f"cached file {f} outside [0, {n_files})")
        self.files, self.n_files = files, n_files

    def __contains__(self, file_id: int) -> bool:
        return file_id in self.files

    @property
    def size(self) -> int:
        return len(self.files)


class RunRecord:
    """Per-round hit sequence of one policy run."""

    __slots__ = ("policy_name", "hits")

    def __init__(self, policy_name: str, hits: bytes):
        if hits.translate(None, b"\x00\x01"):
            raise DomainError("hit entries must be 0 or 1")
        self.policy_name, self.hits = policy_name, hits

    @property
    def T(self) -> int:
        """Rounds played."""
        return len(self.hits)

    @property
    def cumulative_hits(self) -> int:
        """Rounds that were hits."""
        return self.hits.count(1)


def replay(policy, trace: RequestTrace) -> RunRecord:
    """Drive a policy through a trace, one `step(request) -> 0|1` per round.

    Policies expose `name` and `step`. `step` predicts a cache, scores it
    against the incoming request, and performs all internal updates.
    """
    step = policy.step
    hits = bytearray()
    for x in trace.requests:
        hits.append(step(x))
    return RunRecord(policy_name=policy.name, hits=bytes(hits))


def load_trace(path) -> RequestTrace:
    """Read a trace file: one integer file id per line.

    An optional first line ``# N=<int> BASE=<0|1>`` declares the library
    size and whether ids are 1-based (they are shifted down on load), each
    field at most once; a ``#`` line anywhere else is malformed. Without a
    header, ids are taken as 0-based and the library size is
    ``max(id) + 1``. A line holds one integer as `int` reads it once
    surrounding whitespace is stripped (signs and ``_`` separators
    included); blank lines are skipped. A malformed line or an id outside
    the library is a hard error naming the line number.

    The body is read in blocks of about `_BLOCK_HINT` characters, each
    converted by one `map(int, ...)`. A block holding a blank or malformed
    line is redone line by line, which skips the blanks and names the bad
    line; the whole text is never held at once.
    """
    requests: list[int] = []
    declared_n = None
    base = 0
    with open(path, "r", encoding="ascii") as fh:
        try:
            block, lineno = fh.readlines(1), 1
            if block and (first := block[0].strip()).startswith("#"):
                declared_n, base = _parse_trace_header(first, path)
                block, lineno = fh.readlines(_BLOCK_HINT), 2
            while block:
                mark = len(requests)
                try:
                    requests += map(int, block)
                except ValueError:
                    del requests[mark:]
                    requests += _ids_by_line(block, lineno, path)
                lineno += len(block)
                block = fh.readlines(_BLOCK_HINT)
        except UnicodeDecodeError:
            raise DataError(f"{path}: not an ASCII text file") from None
    if base == 1:
        requests = [x - 1 for x in requests]
    n = declared_n
    if n is None:
        if not requests:
            raise DataError(f"{path}: empty trace with no library size declared")
        n = max(max(requests) + 1, 1)
    try:
        return RequestTrace(n_files=n, requests=requests)
    except DomainError:
        raise _out_of_range(path, base, n - 1 + base) from None


# Characters per block of trace lines: a few thousand short lines.
_BLOCK_HINT = 1 << 14


def _ids_by_line(lines: list[str], lineno: int, path) -> list[int]:
    """The ids of `lines` (the first is line `lineno`), skipping blank ones."""
    ids = []
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if line:
            try:
                ids.append(int(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: not an integer file id: "
                                f"{line!r}") from None
    return ids


def _out_of_range(path, low: int, high: int) -> DataError:
    """The error naming the first line of a parsed trace file whose id, as
    written, lies outside [low, high]."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or (lineno == 1 and line.startswith("#")):
                continue
            if not low <= int(line) <= high:
                return DataError(f"{path}:{lineno}: file id {line} outside [{low}, {high}]")
    raise AssertionError(f"{path}: no id outside [{low}, {high}]")


def _parse_trace_header(line: str, path) -> tuple[int, int]:
    fields = line.lstrip("#").split()
    n = None
    base = 0
    seen = set()
    for f in fields:
        key, _, value = f.partition("=")
        if key in seen:
            raise DataError(f"{path}:1: repeated header field {key!r}")
        seen.add(key)
        if key == "N":
            try:
                n = int(value)
            except ValueError:
                raise DataError(f"{path}:1: N must be an integer, got {value!r}") from None
        elif key == "BASE":
            if value not in ("0", "1"):
                raise DataError(f"{path}:1: BASE must be 0 or 1, got {value!r}")
            base = int(value)
        else:
            raise DataError(f"{path}:1: unknown header field {key!r}")
    if n is None or n < 1:
        raise DataError(f"{path}:1: header must declare N=<positive int>")
    return n, base


def save_trace(trace: RequestTrace, path) -> None:
    """Write a trace file with an explicit ``# N=... BASE=0`` header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# N={trace.n_files} BASE=0\n")
        for x in trace.requests:
            fh.write(f"{x}\n")
