"""Finite fixed-point-free functions and their orbit structure.

Everything downstream works with a function f on a window [0, N): a tuple of
values with f(x) != x everywhere. Values may point past the window edge;
such edges leave the graph and are tracked as boundary exits rather than
silently clipped. The functional graph of an injective window function
splits into cycles and into paths that either start outside the image or
fall off the window edge, and that decomposition is what the covering and
partition constructions consume.
"""

from __future__ import annotations

import json
from operator import eq
from typing import Callable, Iterable, Iterator

# Most points any one call may hold in memory: a batch's seeded functions
# together, or a block system's materialized positions.
MAX_MATERIALIZED_POSITIONS = 10_000_000

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_INC = 1442695040888963407
_TWO32 = 1 << 32


def _draw_limit(n: int) -> int:
    """Raw 32-bit draws below this give an unbiased residue mod n."""
    if n <= 0 or n > _TWO32:
        raise ValueError(f"below() needs 1 <= n <= 2**32, got {n}")
    return _TWO32 - _TWO32 % n


class Lcg64:
    """Deterministic 64-bit linear congruential generator (MMIX constants).

    Output is the top 32 bits of the state. Bounded draws use rejection
    sampling so every residue is equally likely; shuffling is Fisher-Yates
    from the top. The point is bit-for-bit reproducibility across runs and
    platforms, which the report-determinism check relies on.
    """

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ _MULT) & _MASK64
        self.next_u32()

    def next_u32(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK64
        return self.state >> 32

    def below(self, n: int) -> int:
        """Uniform draw from [0, n). Requires 1 <= n <= 2**32."""
        limit = _draw_limit(n)
        while True:
            v = self.next_u32()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the top: the draws below(i + 1), inlined."""
        _draw_limit(max(1, len(items)))  # refuse what below(len(items)) would
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            state = (state * _MULT + _INC) & _MASK64
            v = state >> 32
            if v > _TWO32 - n:  # the limit is above 2**32 - n, so only these may fail
                limit = _TWO32 - _TWO32 % n
                while v >= limit:
                    state = (state * _MULT + _INC) & _MASK64
                    v = state >> 32
            j = v % n
            items[i], items[j] = items[j], items[i]
        self.state = state


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in __slots__, or in _fields when further
    slots hold values derived from the fields. A record is built from
    positional arguments in field order and then checked by __post_init__.
    It equals only a record of its own type with equal fields, hashes its
    fields, prints as Name(field=value, ...) and refuses assignment and
    deletion, so __post_init__ normalises a field with object.__setattr__.
    One record spells out its own __init__: Subset, built many times per
    call, sets and checks its two fields in one call, with no loop and no
    __post_init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple[Callable[[Record, object], None], ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        # a slot descriptor sets its field without object.__setattr__'s lookup
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values: object) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{type(self).__name__} takes {len(setters)} fields, got {len(values)}"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalise the fields; a record without one takes any."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class FiniteFunction(Record):
    """A function on [0, N) given by its value tuple.

    values[x] is f(x); entries must be nonnegative and differ from their
    index (no fixed points). Entries >= N are allowed and mark edges that
    exit the window. injective_on_window follows from values, so it
    takes no part in equality or the repr.
    """

    __slots__ = ("values", "injective_on_window")
    _fields = ("values",)
    values: tuple[int, ...]
    injective_on_window: bool

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("empty window")
        # a negative value anywhere is reported before a fixed point
        if min(vals) < 0:
            x = next(x for x, v in enumerate(vals) if v < 0)
            raise ValueError(f"negative value at {x}")
        if any(map(eq, vals, range(len(vals)))):
            raise ValueError("function has a fixed point")
        inj = len(set(vals)) == len(vals)
        object.__setattr__(self, "injective_on_window", inj)

    @property
    def window(self) -> int:
        return len(self.values)

    def in_window_edges(self) -> Iterator[tuple[int, int]]:
        """Edges (x, f(x)) with both ends inside the window."""
        n = len(self.values)
        for x, v in enumerate(self.values):
            if v < n:
                yield (x, v)

    def to_json(self) -> dict:
        return {"n": len(self.values), "values": list(self.values)}

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteFunction":
        shape = 'a function must be a JSON object {"n": N, "values": [...]}'
        n, values = json_fields(doc, shape, "n", "values")
        vals = json_ints(values, "values")
        if json_int(n, "n") != len(vals):
            raise ValueError("declared window does not match value count")
        return cls(vals)


def json_fields(doc: object, message: str, *keys: str) -> tuple:
    """The values at keys of a JSON object; anything else raises ValueError(message)."""
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise ValueError(message)
    return tuple(doc[k] for k in keys)


def json_int(value: object, what: str) -> int:
    """A JSON integer, refusing true/false and non-integral numbers.

    bool is a subclass of int and int(1.5) truncates, so int() would
    coerce both silently.
    """
    if type(value) is not int:
        raise ValueError(f"{what} is {json.dumps(value)}, not an integer")
    return value


def json_ints(items: object, what: str) -> tuple[int, ...]:
    """A JSON array of integers as a tuple; an error names the first bad index."""
    if not isinstance(items, list):
        raise ValueError(f"{what} must be a JSON array of integers")
    if not all(type(v) is int for v in items):
        i = next(i for i, v in enumerate(items) if type(v) is not int)
        json_int(items[i], f"{what}[{i}]")
    return tuple(items)


class Subset(Record):
    """A subset of a window, kept as a strictly increasing tuple."""

    __slots__ = ("window", "elements")
    window: int
    elements: tuple[int, ...]

    def __init__(self, window: int, elements: tuple[int, ...]) -> None:
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "elements", elements)
        if window <= 0:
            raise ValueError("window must be positive")
        prev = -1
        for e in elements:
            if e <= prev:
                raise ValueError("elements must be strictly increasing")
            if e < 0 or e >= window:
                raise ValueError(f"element {e} outside window [0, {window})")
            prev = e

    @classmethod
    def of(cls, window: int, elements: Iterable[int]) -> "Subset":
        return cls(window, tuple(sorted(set(elements))))

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> list[int]:
        return list(self.elements)


class Orbit(Record):
    """One orbit of an injective window function.

    kind is "cycle" or "path". Cycle nodes start at the smallest node;
    following the function from each node gives the next, and the last
    node maps back to the first. Path nodes run in function order
    from the unique entry point, which has no preimage inside the window,
    and the final node maps past the window edge.
    """

    __slots__ = ("kind", "nodes")
    kind: str
    nodes: tuple[int, ...]


class OrbitDecomposition(Record):
    """The orbits of a window function, in ascending order of first node."""

    __slots__ = ("window", "orbits")
    window: int
    orbits: tuple[Orbit, ...]

    @property
    def cycles(self) -> tuple[Orbit, ...]:
        return tuple(o for o in self.orbits if o.kind == "cycle")

    @property
    def paths(self) -> tuple[Orbit, ...]:
        return tuple(o for o in self.orbits if o.kind == "path")


def orbit_decomposition(fn: FiniteFunction) -> OrbitDecomposition:
    """Split an injective window function into cycles and paths.

    Injectivity makes every in-window point have at most one preimage, so
    each connected component is a cycle or a single path. Paths begin at
    points with no in-window preimage or whose would-be preimage maps out
    of the window; they end where the function leaves the window.
    """
    if not fn.injective_on_window:
        raise ValueError("orbit decomposition needs an injective function")
    n = fn.window
    pre = [-1] * n
    for x, v in enumerate(fn.values):
        if v < n:
            pre[v] = x
    seen = [False] * n
    orbits: list[Orbit] = []
    for start in range(n):
        if seen[start]:
            continue
        if pre[start] == -1:
            # path: walk forward until the function exits the window
            nodes = [start]
            seen[start] = True
            x = start
            while fn.values[x] < n:
                x = fn.values[x]
                nodes.append(x)
                seen[x] = True
            orbits.append(Orbit("path", tuple(nodes)))
    for start in range(n):
        if seen[start]:
            continue
        # remaining components are cycles: every node has a preimage
        nodes = [start]
        seen[start] = True
        x = fn.values[start]
        while x != start:
            nodes.append(x)
            seen[x] = True
            x = fn.values[x]
        # the scan ascends, so start is the cycle's least node
        orbits.append(Orbit("cycle", tuple(nodes)))
    orbits.sort(key=lambda o: o.nodes[0])
    return OrbitDecomposition(n, tuple(orbits))


def verify_orbits(fn: FiniteFunction, dec: OrbitDecomposition) -> tuple[str, ...]:
    """Re-check a decomposition against the function; returns complaints.

    Confirms the orbits partition the window in ascending order of first
    node, consecutive nodes are f-edges, cycles close and start at their
    least node, paths exit the window, and path heads have no in-window
    preimage.
    """
    n = fn.window
    complaints = []
    if dec.window != n:
        complaints.append("window mismatch")
        return tuple(complaints)
    seen: set[int] = set()
    image = {v for v in fn.values if v < n}
    prev_first = -1
    for idx, orbit in enumerate(dec.orbits):
        if orbit.nodes[0] <= prev_first:
            complaints.append(f"orbit {idx} is out of order")
        prev_first = orbit.nodes[0]
        for node in orbit.nodes:
            if node in seen:
                complaints.append(f"node {node} repeats")
            seen.add(node)
        for a, b in zip(orbit.nodes, orbit.nodes[1:]):
            if fn.values[a] != b:
                complaints.append(f"orbit {idx} breaks at {a}")
        last = orbit.nodes[-1]
        if orbit.kind == "cycle":
            if fn.values[last] != orbit.nodes[0]:
                complaints.append(f"cycle {idx} does not close")
            if orbit.nodes[0] != min(orbit.nodes):
                complaints.append(f"cycle {idx} does not start at its least node")
        elif orbit.kind == "path":
            if fn.values[last] < n:
                complaints.append(f"path {idx} does not exit the window")
            if orbit.nodes[0] in image:
                complaints.append(f"path {idx} head has a preimage")
        else:
            complaints.append(f"orbit {idx} has unknown kind {orbit.kind}")
    if len(seen) != n:
        complaints.append("orbits do not cover the window")
    return tuple(complaints)


def image_overlap(subset: Subset, fn: FiniteFunction) -> Subset:
    """Elements of the subset hit by the function from inside the subset.

    Returns f[A] cap A as a subset, counting only edges that stay inside
    the subset's window. Empty means A is free for f.
    """
    if subset.window > fn.window:
        raise ValueError("subset window exceeds function window")
    hits = {fn.values[x] for x in subset.elements}.intersection(subset.elements)
    return Subset(subset.window, tuple(sorted(hits)))


def is_free(subset: Subset, fn: FiniteFunction) -> bool:
    if subset.window > fn.window:
        raise ValueError("subset window exceeds function window")
    return set(subset.elements).isdisjoint(map(fn.values.__getitem__, subset.elements))


def random_fpf_function(
    seed: int, n: int, injective: bool = False
) -> FiniteFunction:
    """Draw a fixed-point-free function on [0, n) from a seed.

    Non-injective draws pick each value uniformly from the window minus the
    diagonal. Injective draws shuffle a pool slightly larger than the
    window (the extra room gives boundary exits and keeps the retry loop
    short) and resample until no fixed point remains.
    """
    if n < 1:
        raise ValueError("window must have at least 1 point")
    if n == 1:
        # the only fixed-point-free choice is a boundary exit
        return FiniteFunction((1,))
    gen = Lcg64(seed)
    if not injective:
        # n draws of gen.below(n - 1), inlined, each shifted past the diagonal
        span = n - 1
        limit = _draw_limit(span)
        state = gen.state
        vals = []
        for i in range(n):
            while True:
                state = (state * _MULT + _INC) & _MASK64
                v = state >> 32
                if v < limit:
                    break
            v %= span
            if v >= i:
                v += 1
            vals.append(v)
        return FiniteFunction(tuple(vals))
    m = n + max(1, n // 8)
    while True:
        pool = list(range(m))
        gen.shuffle(pool)
        if not any(map(eq, pool, range(n))):
            return FiniteFunction(tuple(pool[:n]))
