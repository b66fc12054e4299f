"""Graded chain complexes with circle actions.

Conventions used across the package:

- the differential has degree -1 and squares to zero;
- an optional endomorphism U of degree -2 commutes with the differential;
- an optional endomorphism Y of degree +1 anticommutes with the
  differential and squares to zero;
- the graded commutator is [A, B] = A.B - (-1)^{|A||B|} B.A;
- a chain map of degree r satisfies  f.d1 - (-1)^r d2.f = 0  (so odd maps
  anticommute with the differentials);
- a p-morphism is a chain map f together with a witness K of degree
  deg(f) - 1 such that  f.U1 - U2.f + (-1)^{deg f} K.d1 + d2.K = 0.

Coefficients are integers; complexes carry a ring parameter ``p`` (0 for Z,
a prime for F_p) and all verifications reduce modulo p when p > 0.

Homology is presented through a reduction.  Each complex C is reduced once
by greedy cancellation of unit entries of d to a complex C' labelled by a
subset of its generators, with chain maps iota: C' -> C and pi: C -> C'
such that pi . iota = 1.  Over F_p every nonzero entry is a unit and
d' = 0.  Over Z only +-1 entries cancel, and changes of basis within each
degree of C' then bring d' to pieces v: x -> y with |v| >= 2, each
generator in at most one.  The pass that ends the reduction indexes those
pieces by degree and reads off them, with no Smith form, a
``PresentedGroup`` of H(C') at every degree where C' is not empty; the
reduction keeps them beside one trivial presentation, which serves every
other degree.  Nothing reads a class in C.  The class matrix of f is that
of pi . f . iota: each canonical generator of the source is pushed through
iota, f, the cycle test d = 0 and pi, and read in the target's coordinates
(``_HomologyArrow._push``).  No degree block of a map is built.  Over F_p
an exactness node is then decided by ranks.

Many constructions are block matrices over renamed copies of generator
sets: the cone, the doubling [[d, 0], [U, -d]], the hat/bar/check assembly,
the tower levels.  ``_renamed_module`` lists pieces' generators in order,
each renamed by a format such as ``"{}.y"`` and shifted in degree, and
``_block_map`` sums blocks (map, source format, target format, sign) into
a checked ``GradedMap``.  A window truncation of a renamed map is
``circle._restricted`` of a ``_block_map`` over the untruncated piece; the
one per-exponent exception, ``circle._slotwise``, has no such piece.

Values follow the convention stated on ``exactlin._Sealed``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .exactlin import (AbelianGroup, IntMatrix, PresentedGroup, SNFResult,
                       TRIVIAL_GROUP, CompositionNonzero, _axpy,
                       _back_substitute, _kernel_head, _Sealed, field_rank,
                       is_prime, snf)


class ChainError(Exception):
    pass


class NotAChainMap(ChainError):
    pass


class ModulusUnsupported(ChainError):
    pass


class HomogeneityViolated(ChainError):
    pass


class _Checked:
    """Building the record runs ``_check``, and so do ``_make`` and
    ``_replace``, which go through the constructor."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Graded modules and maps
# ---------------------------------------------------------------------------

class GradedModule(_Sealed):
    """Finite list of named generators with integer degrees.

    ``modulus`` even and positive turns the grading into Z/modulus; degrees
    are then stored as representatives in [0, modulus).
    """

    __slots__ = ("generators", "modulus", "_index", "_by_degree")

    def __init__(self, generators: Iterable[Tuple[str, int]], modulus: int = 0):
        if modulus < 0 or modulus % 2:
            raise ChainError("modulus must be an even nonnegative integer")
        self._fill(tuple((str(name), int(deg % modulus if modulus else deg))
                         for name, deg in generators), modulus)
        if len(self._index) < len(self.generators):
            seen = set()
            name = next(n for n, _ in self.generators
                        if n in seen or seen.add(n))
            raise ChainError(f"duplicate generator name {name!r}")

    @classmethod
    def _trusted(cls, generators: Iterable[Tuple[str, int]],
                 modulus: int = 0) -> "GradedModule":
        """A module from distinct (str, int) pairs, degrees reduced."""
        (module := cls.__new__(cls))._fill(tuple(generators), modulus)
        return module

    def _fill(self, gens: Tuple[Tuple[str, int], ...], modulus: int) -> None:
        by_degree: Dict[int, List[str]] = {}
        for name, deg in gens:
            by_degree.setdefault(deg, []).append(name)
        index = {name: pos for pos, (name, _) in enumerate(gens)}
        _Sealed.__init__(self, gens, modulus, index, by_degree)

    def __len__(self) -> int:
        return len(self.generators)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    def degree_of(self, name: str) -> int:
        return self.generators[self._index[name]][1]

    def gens_in_degree(self, j: int) -> List[str]:
        if self.modulus:
            j %= self.modulus
        return list(self._by_degree.get(j, ()))

    def degrees(self) -> List[int]:
        return sorted(self._by_degree)

    def reduce_degree(self, j: int) -> int:
        return j % self.modulus if self.modulus else j

    def support_window(self) -> Optional[Tuple[int, int]]:
        ds = self.degrees()
        return (ds[0], ds[-1]) if ds else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedModule)
                and self.generators == other.generators
                and self.modulus == other.modulus)

    def __repr__(self) -> str:
        return f"GradedModule({len(self.generators)} gens, modulus={self.modulus})"


class GradedMap(_Sealed):
    """Homogeneous linear map of fixed degree, stored generator-to-generator.
    The constructor checks every entry (known generators, homogeneity); the
    closed operations ``+``, ``-``, ``scale`` and ``@`` combine checked maps
    and build their results unchecked, by ``_trusted``.  The entries grouped
    by source generator, which ``@``, ``image_of``, class matrices and the
    flavor engine's slotwise maps read, are built on first read.  No
    degreewise matrix of a map is ever built."""

    __slots__ = ("source", "target", "degree", "entries", "_by_src")

    def __init__(self, source: GradedModule, target: GradedModule, degree: int,
                 entries: Optional[Dict[Tuple[str, str], int]] = None):
        clean: Dict[Tuple[str, str], int] = {}
        if entries:
            sindex, sgens = source._index, source.generators
            tindex, tgens = target._index, target.generators
            for (s, t), v in entries.items():
                if not v:
                    continue
                if (a := sindex.get(s)) is None:
                    raise ChainError(f"unknown source generator {s!r}")
                if (b := tindex.get(t)) is None:
                    raise ChainError(f"unknown target generator {t!r}")
                want = sgens[a][1] + degree
                if target.modulus:
                    want %= target.modulus
                if tgens[b][1] != want:
                    raise HomogeneityViolated(
                        f"entry {s!r}->{t!r} violates degree {degree} homogeneity")
                clean[(s, t)] = v
        self._fill(source, target, degree, clean)

    def _fill(self, source: GradedModule, target: GradedModule, degree: int,
              entries: Dict[Tuple[str, str], int]) -> None:
        _set_source(self, source), _set_target(self, target)
        _set_degree(self, degree), _set_entries(self, entries)
        _set_by_src(self, None)

    def _rows(self) -> Dict[str, Dict[str, int]]:
        """The entries grouped by source generator: {src: {dst: coeff}}."""
        if self._by_src is None:
            by_src: Dict[str, Dict[str, int]] = {}
            for (s, t), v in self.entries.items():
                by_src.setdefault(s, {})[t] = v
            return self._memo("_by_src", by_src)
        return self._by_src

    @classmethod
    def _trusted(cls, source: GradedModule, target: GradedModule, degree: int,
                 entries: Dict[Tuple[str, str], int]) -> "GradedMap":
        """A map from nonzero entries already known to be homogeneous."""
        f = cls.__new__(cls)
        f._fill(source, target, degree, entries)
        return f

    @classmethod
    def zero(cls, source: GradedModule, target: GradedModule, degree: int) -> "GradedMap":
        return cls(source, target, degree)

    @classmethod
    def identity(cls, module: GradedModule) -> "GradedMap":
        return cls(module, module, 0, {(n, n): 1 for n in module.names()})

    def is_zero_mod(self, p: int) -> bool:
        if p == 0:
            return not self.entries
        return all(v % p == 0 for v in self.entries.values())

    def image_of(self, name: str) -> Dict[str, int]:
        return dict(self._rows().get(name, ()))

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k, 0) + v
            if w:
                ent[k] = w
            else:
                ent.pop(k, None)
        return GradedMap._trusted(self.source, self.target, self.degree, ent)

    def __neg__(self) -> "GradedMap":
        return self.scale(-1)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + (-other)

    def scale(self, c: int) -> "GradedMap":
        return GradedMap._trusted(self.source, self.target, self.degree,
                                  {k: c * v for k, v in self.entries.items()}
                                  if c else {})

    def __matmul__(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        ent: Dict[Tuple[str, str], int] = {}
        _compose(ent, self, other, 1)
        return GradedMap._trusted(other.source, self.target,
                                  self.degree + other.degree, ent)

    def _check_parallel(self, other: "GradedMap"):
        if (self.source != other.source or self.target != other.target
                or self.degree != other.degree):
            raise ChainError("maps are not parallel")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target and self.degree == other.degree
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"GradedMap(degree={self.degree}, {len(self.entries)} entries)")

    def nonzero_witness(self, p: int = 0) -> Optional[Tuple[str, str]]:
        for (s, t), v in sorted(self.entries.items()):
            if p == 0 or v % p:
                return (s, t)
        return None


_set_source, _set_target, _set_degree, _set_entries, _set_by_src = (
    getattr(GradedMap, name).__set__ for name in GradedMap.__slots__)


def _compose(acc: Dict, g: GradedMap, h: GradedMap, c: int) -> None:
    """acc += c g.h, with the checks of ``g @ h``: h ends where g starts,
    and where the gradings do not share one modulus (so that degrees need
    not add up exactly) g.h's own entries pass the constructor's checks."""
    if h.target is not g.source and h.target != g.source:
        raise ChainError("composition source/target mismatch")
    mixed = not (h.source.modulus == g.source.modulus == g.target.modulus)
    ent, rows = {} if mixed else acc, g._rows()
    for (s, m), v in h.entries.items():
        if row := rows.get(m):
            v *= c
            for t, w in row.items():
                if x := ent.get(k := (s, t), 0) + v * w:
                    ent[k] = x
                else:
                    del ent[k]
    if mixed:
        _axpy(acc, GradedMap(h.source, g.target, g.degree + h.degree,
                             ent).entries, 1, 0)


def _defect(f: GradedMap, a: GradedMap, b: GradedMap) -> GradedMap:
    """f.a - (-1)^{|f||a|} b.f, zero when f intertwines a with b: both
    products summed into one dict, with the checks of ``@`` and of ``-``
    (the products are parallel)."""
    ent: Dict = {}
    _compose(ent, f, a, 1)
    _compose(ent, b, f, 1 if (f.degree % 2) and (a.degree % 2) else -1)
    if a.source != f.source or f.target != b.target or a.degree != b.degree:
        raise ChainError("maps are not parallel")
    return GradedMap._trusted(a.source, f.target, f.degree + a.degree, ent)


def commutator(f: GradedMap, g: GradedMap) -> GradedMap:
    """Graded commutator [f, g] = f.g - (-1)^{|f||g|} g.f."""
    return _defect(f, g, g)


def is_chain_map(f: GradedMap, source: "ChainComplex", target: "ChainComplex") -> bool:
    """f.d1 - (-1)^{deg f} d2.f = 0 (mod the ring of the complexes)."""
    return _defect(f, source.d, target.d).is_zero_mod(source.p)


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

class ChainComplex(_Sealed):
    """A graded module with a square-zero degree -1 differential, optional
    circle actions U (degree -2) and Y (degree +1), over Z (p=0) or F_p.

    The complex keeps one homology memo, its ``reduction``: a smaller
    complex C' with chain maps iota: C' -> C and pi: C -> C', pi . iota =
    1, and the presentations of H(C') degree by degree (per reduced degree
    when the grading is periodic), all made the first time homology is
    asked for.  A class of C reaches a presentation only through iota and
    pi.  The memo depends only on ``d`` and ``p``, fixed at construction,
    so it never goes stale; it lives and dies with this object, is never
    shared with another complex, and holds no reference back to it, so the
    complex is freed by reference counting alone.  ``_valid`` records that
    its fixed laws passed."""

    __slots__ = ("module", "d", "u_action", "y_action", "p", "_reduced",
                 "_valid")

    def __init__(self, module: GradedModule, d: GradedMap,
                 u_action: Optional[GradedMap] = None,
                 y_action: Optional[GradedMap] = None, p: int = 0):
        if d.source != module or d.target != module or d.degree != -1:
            raise ChainError("differential must be a degree -1 endomorphism")
        if u_action is not None and (u_action.source != module
                                     or u_action.target != module
                                     or u_action.degree != -2):
            raise ChainError("U must be a degree -2 endomorphism")
        if y_action is not None and (y_action.source != module
                                     or y_action.target != module
                                     or y_action.degree != 1):
            raise ChainError("Y must be a degree +1 endomorphism")
        if p and not is_prime(p):
            raise ChainError(f"ring parameter {p} is neither 0 (Z) nor a prime")
        super().__init__(module, d, u_action, y_action, p, None, False)

    def with_actions(self, u_action: Optional[GradedMap] = None,
                     y_action: Optional[GradedMap] = None) -> "ChainComplex":
        return ChainComplex(self.module, self.d,
                            u_action if u_action is not None else self.u_action,
                            y_action if y_action is not None else self.y_action,
                            self.p)

    def __repr__(self) -> str:
        extras = "".join([", U" if self.u_action is not None else "",
                          ", Y" if self.y_action is not None else ""])
        ring = "Z" if self.p == 0 else f"F{self.p}"
        return f"ChainComplex({len(self.module)} gens over {ring}{extras})"


class Check(NamedTuple):
    """One verdict, named by the tag a report prints.  ``witness`` locates
    a failure: ``_law``, which judges every tagged identity, gives the
    generator pair of the defect's first nonzero entry; a long exact
    sequence its first failing (location, degree), or None with no node
    to check; a square on homology its first failing degree.  A message
    naming the failure is printed beneath the check as a ``detail``."""

    tag: str
    ok: bool
    witness: object = None


class CheckReport(NamedTuple):
    """Checks in the order a report prints them."""

    checks: Tuple[Check, ...]

    @property
    def ok(self) -> bool:
        """At least one check, and every check passing."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]


def _law(tag: str, defect: GradedMap, p: int) -> Check:
    """The Check that defect vanishes mod p; on failure its witness is the
    first nonzero entry."""
    if defect.is_zero_mod(p):
        return Check(tag, True)
    return Check(tag, False, defect.nonzero_witness(p))


def validate(C: ChainComplex) -> CheckReport:
    """Check d^2 = 0, [d,U] = 0, dY + Yd = 0, Y^2 = 0, and degree
    homogeneity; failures carry a witnessing generator pair."""
    p = C.p
    # degree homogeneity is enforced when maps are built, so it can only pass
    checks = [Check("degree-homogeneity", True), _law("d.d=0", C.d @ C.d, p)]
    if C.u_action is not None:
        checks.append(_law("[d,U]=0", commutator(C.d, C.u_action), p))
    if C.y_action is not None:
        checks += [_law("dY+Yd=0", commutator(C.d, C.y_action), p),
                   _law("Y.Y=0", C.y_action @ C.y_action, p)]
    return CheckReport(tuple(checks))


def _require_valid(C: ChainComplex, prefix: str) -> None:
    """ChainError ``<prefix> <tag> at <witness>`` for the first law of
    ``validate`` that C fails.  A pass is kept in C's ``_valid`` slot (C
    never changes), so C is validated once; a failure raises every time."""
    if C._valid:
        return
    for check in validate(C).checks:
        if not check.ok:
            raise ChainError(f"{prefix} {check.tag} at {check.witness}")
    C._memo("_valid", True)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

class HomologyTable(_Sealed):
    """Map degree -> AbelianGroup; degrees outside the support are trivial."""

    __slots__ = ("table",)

    def __init__(self, table: Dict[int, AbelianGroup]):
        super().__init__({j: g for j, g in table.items() if not g.is_trivial()})

    def __getitem__(self, j: int) -> AbelianGroup:
        return self.table.get(j, TRIVIAL_GROUP)

    def degrees(self) -> List[int]:
        return sorted(self.table)

    def __eq__(self, other) -> bool:
        return isinstance(other, HomologyTable) and self.table == other.table

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}: {self.table[j]}" for j in self.degrees())
        return f"HomologyTable({{{inner}}})"


def present_homology(C: ChainComplex, window: Optional[Tuple[int, int]] = None
                     ) -> Dict[int, PresentedGroup]:
    """PresentedGroup for each degree of the window (default: the support
    of C's module, and no degree when C has no generators).

    Each group is the presentation of the homology of C's reduction C' at
    that degree that the reduction made when it ended (``_presentation``):
    its coordinates are those of C', and classes of C reach it only through
    ``_HomologyArrow._push``.  Where d' = 0 (always over F_p) every group is
    plain, its coordinates the generators of C'_j."""
    if window is None:
        sw = C.module.support_window()
        if sw is None:
            return {}
        window = sw
    lo, hi = window
    if C.module.modulus:
        degs = sorted({C.module.reduce_degree(j) for j in range(lo, hi + 1)})
    else:
        degs = list(range(lo, hi + 1))
    return {j: _presentation(C, j) for j in degs}


def _presentation(C: ChainComplex, j: int) -> PresentedGroup:
    """The homology presentation of C at degree j: that of C' at j, on
    C'_j, as C's reduction keeps it; its trivial one where C'_j is empty,
    so that H_j(C) = 0 over Z and over F_p."""
    red = reduction(C)
    return red.presented.get(C.module.reduce_degree(j), red.trivial)


class Reduction(NamedTuple):
    """A complex C' labelled by a subset of C's generators with chain maps
    iota: C' -> C and pi: C -> C' such that pi . iota = 1, so both induce
    inverse isomorphisms on homology.  Over Z a basis vector of C' is a
    combination of C's generators, not the generator it is labelled by:
    iota's column says which.

    The maps are ``_reduce``'s sparse record, indexed by C's module: only
    the columns of iota and the rows of pi that differ from the identity,
    each kept under the label of its basis vector of C'.  ``iota_column``
    and ``pi_row`` read them.  ``presented`` holds the presentation of
    H(C') at each (reduced) degree where C' is not empty, on C'_j in module
    order, and ``trivial`` the one of the zero group over C's ring.
    ``PresentedGroup`` compares by identity, so two records never compare
    equal."""
    complex: ChainComplex
    iota_cols: Dict[int, Dict[int, int]]
    pi_rows: Dict[int, Dict[int, int]]
    presented: Dict[int, PresentedGroup]
    trivial: PresentedGroup

    def iota_column(self, g: int) -> Dict[int, int]:
        """iota of the basis vector of C' labelled g; indices of C's
        module."""
        return self.iota_cols.get(g, {g: 1})

    def pi_row(self, g: int) -> Dict[int, int]:
        """The coefficient of the basis vector labelled g in pi(h), by h;
        indices of C's module."""
        return self.pi_rows.get(g, {g: 1})


def reduction(C: ChainComplex) -> Reduction:
    """C's reduction, computed once and kept in C's slot."""
    red = C._reduced
    return red if red is not None else C._memo("_reduced", _reduce(C))


def _reduce(C: ChainComplex) -> Reduction:
    """Greedy cancellation of unit entries of d, and over Z then the
    pieces of ``_isolate``.

    Cancelling x against y, where d(x) = u y + r with u a unit, drops both
    generators; every a with <d a, y> = c != 0 gets d'(a) = d(a) - c u^-1 d(x)
    (which clears y), entries into x are dropped, iota(a) = a - c u^-1 x and
    pi(y) = -u^-1 r.  Among the units of d(x) the target with the smallest
    coboundary goes first (then the earliest generator), to keep fill-in
    low.  pi is kept transposed, a row per surviving generator, so one
    cancellation touches only the rows d(x) hits, and iota by columns, so
    it touches only the columns of y's coboundary.  One pass over the
    generators in module order cancels a unit of each d(x) it meets.  Over
    F_p every nonzero entry is a unit, so that pass leaves d' = 0 (a
    generator with d = 0 keeps it); over Z only +-1 entries are cancelled,
    and ``_isolate``, which cancels the units still left before anything
    else, then changes the basis of C' until d' is a sum of pieces.  Every
    step uses the current basis of C' only, so ``cancel`` serves both.

    The last pass indexes d' by (reduced) source degree j as {(row in
    C'_{j-1}, column in C'_j): v}, in module order, and presents H(C') at
    every degree where C' is not empty off that index, by
    ``PresentedGroup.from_pieces``.
    """
    p = C.p
    gens = C.module.generators
    index = C.module._index
    # d(a) by target and <d a, y> by source, for generators that have any
    bd: Dict[int, Dict[int, int]] = {}
    cobd: Dict[int, Dict[int, int]] = {}
    for (s, t), v in C.d.entries.items():
        if p:
            v %= p
        if v:
            a, y = index[s], index[t]
            bd.setdefault(a, {})[y] = v
            cobd.setdefault(y, {})[a] = v
    # only the rows of pi and columns of iota that differ from the identity
    pi: Dict[int, Dict[int, int]] = {}
    iota: Dict[int, Dict[int, int]] = {}
    dead = set()    # cancelled generators

    def cancel(x: int, y: int) -> None:
        dx = bd.pop(x)
        u = dx[y]
        uinv = pow(u, p - 2, p) if p else u
        ix = iota.pop(x, {x: 1})
        for a, c in cobd.pop(y).items():
            if a == x:
                continue
            f = -c * uinv
            da = bd[a]
            for t, v in dx.items():
                w = da.get(t, 0) + f * v
                if p:
                    w %= p
                if w:
                    da[t] = w
                    cobd.setdefault(t, {})[a] = w
                else:
                    del da[t]
                    if t != y:      # y's coboundary is already gone
                        del cobd[t][a]
            _axpy(iota.setdefault(a, {a: 1}), ix, f, p)
        py = pi.pop(y, {y: 1})
        for s, r in dx.items():
            if s != y:
                _axpy(pi.setdefault(s, {s: 1}), py, -uinv * r, p)
                del cobd[s][x]
        for a in cobd.pop(x, ()):
            del bd[a][x]
        for t in bd.pop(y, ()):
            del cobd[t][y]
        iota.pop(y, None)
        pi.pop(x, None)
        dead.update((x, y))

    for x in range(len(gens)):
        dx = bd.get(x)
        if not dx:
            continue
        pivot = None
        for y, v in dx.items():
            if p or v == 1 or v == -1:
                key = (len(cobd[y]), y)
                if pivot is None or key < pivot:
                    pivot = key
        if pivot is not None:
            cancel(x, pivot[1])
    if not p:
        _isolate(bd, cobd, iota, pi, cancel)

    keep = [g for g in range(len(gens)) if g not in dead]
    # both restrict the checked complex C: distinct names, homogeneous d
    module = GradedModule._trusted([gens[g] for g in keep], C.module.modulus)
    name = [nm for nm, _ in gens]
    d = GradedMap._trusted(module, module, -1, {
        (name[a], name[t]): v for a in keep for t, v in bd.get(a, {}).items()})
    at = {nm: i for names in module._by_degree.values()
          for i, nm in enumerate(names)}
    pieces: Dict = {}
    for (s, t), v in d.entries.items():
        pieces.setdefault(module.degree_of(s), {})[at[t], at[s]] = v
    presented = {j: PresentedGroup.from_pieces(
        len(names), pieces.get(module.reduce_degree(j + 1), {}),
        pieces.get(j, {}), p) for j, names in module._by_degree.items()}
    return Reduction(ChainComplex(module, d, p=p), iota, pi, presented,
                     PresentedGroup.from_pieces(0, {}, {}, p))


def _isolate(bd: Dict[int, Dict[int, int]], cobd: Dict[int, Dict[int, int]],
             iota: Dict[int, Dict[int, int]], pi: Dict[int, Dict[int, int]],
             cancel) -> None:
    """Bring the d' that ``_reduce`` leaves over Z to pieces x -> y, each
    kept generator with at most one entry of d', every entry >= 2 in
    absolute value.

    The entry v: x -> y of least |v| (then the earliest x, then y) is the
    pivot; a unit is cancelled by ``cancel``.  Otherwise every other entry
    of x's row and of y's column is reduced mod v by a change of basis
    inside one degree of C', which d' (out and in), iota's columns and pi's
    rows follow at once; when no remainder is left the pair is isolated.
    An isolated pair is never touched again: y and x's row reach no other
    generator, and d'^2 = 0 over Z leaves nothing entering x and nothing
    leaving y.  A d that does not square to zero, which could break that
    and cycle for ever, raises ``ChainError`` instead."""

    # an entry v: x -> y has one live record (key[x, y], x, y), key <= |v|:
    # a new or smaller entry pushes one, a record that comes up below its
    # grown entry goes back at |v|, and a record not live is skipped
    key = {(x, y): abs(v) for x, dx in bd.items() for y, v in dx.items()}
    heap = [(k, x, y) for (x, y), k in key.items()]
    heapify(heap)

    def written(x: int, y: int, v: int) -> None:
        if (x, y) not in key or abs(v) < key[x, y]:
            key[x, y] = abs(v)
            heappush(heap, (abs(v), x, y))

    def basis_add(b: int, a: int, c: int) -> None:
        # e_b <- e_b + c e_a: d'(e_b) gains c d'(e_a), the coordinate at a
        # of every boundary loses c times that at b
        if da := bd.get(a):
            db = bd.setdefault(b, {})
            for t, v in da.items():
                if w := db.get(t, 0) + c * v:
                    db[t] = cobd[t][b] = w
                    written(b, t, w)
                else:
                    del db[t], cobd[t][b]
        if cb := cobd.get(b):
            ca = cobd.setdefault(a, {})
            for s, v in cb.items():
                if w := ca.get(s, 0) - c * v:
                    ca[s] = bd[s][a] = w
                    written(s, a, w)
                else:
                    del ca[s], bd[s][a]
        _axpy(iota.setdefault(b, {b: 1}), iota.get(a, {a: 1}), c, 0)
        _axpy(pi.setdefault(a, {a: 1}), pi.get(b, {b: 1}), -c, 0)

    while heap:
        pivot = heappop(heap)
        k, x, y = pivot
        if key.get((x, y)) != k:
            continue
        if abs(v := bd.get(x, {}).get(y, 0)) != k:
            # the live record of an entry that died or grew
            del key[x, y]
            if v:
                written(x, y, v)
            continue
        if k == 1:
            dx, rows = list(bd[x]), [a for a in cobd[y] if a != x]
            cancel(x, y)
            for a in rows:
                for t in dx:
                    if w := bd[a].get(t):
                        written(a, t, w)
            continue
        for t, w in list(bd[x].items()):
            if t != y and (q := w // v):
                basis_add(y, t, q)
        for s, w in list(cobd[y].items()):
            if s != x and (q := w // v):
                basis_add(s, x, -q)
        if len(bd[x]) > 1 or len(cobd[y]) > 1:
            heappush(heap, pivot)
        elif cobd.get(x) or bd.get(y):
            # the pair is isolated, but only d'^2 = 0 keeps it so
            raise ChainError("differential does not square to zero")


def homology(C: ChainComplex, window: Optional[Tuple[int, int]] = None) -> HomologyTable:
    """Degreewise homology of a complex that passes ``validate``: the groups
    of ``present_homology``, read off its reduction with no Smith form."""
    _require_valid(C, "complex fails law")
    pres = present_homology(C, window)
    return HomologyTable({j: pg.group for j, pg in pres.items()})


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _renamed_module(pieces: Sequence[Tuple[GradedModule, str, int]],
                    modulus: int = 0) -> GradedModule:
    """The generators of each (module, name format, degree shift) piece in
    order, renamed by the format and shifted in degree."""
    gens = []
    for module, fmt, shift in pieces:
        pre, _, post = fmt.partition("{}")
        gens += [(pre + n + post, d + shift) for n, d in module.generators]
    return GradedModule(gens, modulus)


def _block_map(source: GradedModule, target: GradedModule, degree: int,
               blocks: Sequence[Tuple[Optional[GradedMap], str, str, int]]
               ) -> GradedMap:
    """Sum of blocks (f, source name format, target name format, sign):
    each entry s -> t of f, times sign, lands on the renamed pair; None
    blocks are skipped and colliding entries add up."""
    ent: Dict[Tuple[str, str], int] = {}
    for f, sfmt, tfmt, sign in blocks:
        if f is None:
            continue
        sp, _, ss = sfmt.partition("{}")
        tp, _, ts = tfmt.partition("{}")
        for (s, t), v in f.entries.items():
            k = (sp + s + ss, tp + t + ts)
            ent[k] = ent.get(k, 0) + sign * v
    return GradedMap(source, target, degree, ent)


def cone(f: GradedMap, A: ChainComplex, B: ChainComplex,
         tags: Tuple[str, str] = ("A", "B")) -> ChainComplex:
    """Mapping cone of an anticommuting degree -1 chain map f: A -> B.

    Generators of A keep their degrees and are prefixed ``tags[0].``; same
    for B with ``tags[1].``; the differential is [[d_A, 0], [f, d_B]].
    """
    if f.source != A.module or f.target != B.module or f.degree != -1:
        raise NotAChainMap("cone expects a degree -1 map from A to B")
    if A.p != B.p:
        raise ChainError("ring mismatch")
    if not is_chain_map(f, A, B):
        raise NotAChainMap("map does not anticommute with the differentials")
    ta, tb = (tag + ".{}" for tag in tags)
    module = _renamed_module([(A.module, ta, 0), (B.module, tb, 0)],
                             A.module.modulus)
    d = _block_map(module, module, -1, [
        (A.d, ta, ta, 1), (B.d, tb, tb, 1), (f, ta, tb, 1)])
    return ChainComplex(module, d, p=A.p)


def cone_inclusion(E: ChainComplex, B: ChainComplex, tag: str = "B") -> GradedMap:
    """The degreewise-split inclusion B -> cone."""
    return GradedMap(B.module, E.module, 0,
                     {(n, f"{tag}.{n}"): 1 for n in B.module.names()})


def cone_projection(E: ChainComplex, A: ChainComplex, tag: str = "A") -> GradedMap:
    """The degreewise-split projection cone -> A."""
    return GradedMap(E.module, A.module, 0,
                     {(f"{tag}.{n}", n): 1 for n in A.module.names()})


class TensorResult(NamedTuple):
    """Product complex with the raw factor actions exposed.

    ``u1``/``u2``/``y1``/``y2`` are U1x1, 1xU2, Y1x1, 1xY2 on the product
    module (None when the factor lacks the action); odd maps applied through
    the first factor carry the Koszul sign.
    """
    complex: ChainComplex
    u1: Optional[GradedMap]
    u2: Optional[GradedMap]
    y1: Optional[GradedMap]
    y2: Optional[GradedMap]


def tensor_name(a: str, b: str) -> str:
    return f"{a}|{b}"


def tensor(C1: ChainComplex, C2: ChainComplex) -> TensorResult:
    """Product complex with differential d1 x 1 + (-1)^{deg of first} 1 x d2."""
    if C1.module.modulus or C2.module.modulus:
        raise ModulusUnsupported("tensor products need genuine Z-gradings")
    if C1.p != C2.p:
        raise ChainError("ring mismatch")
    gens = [(tensor_name(a, b), da + db)
            for a, da in C1.module.generators
            for b, db in C2.module.generators]
    module = GradedModule(gens)

    def left_map(f: GradedMap, degree: int) -> GradedMap:
        ent = {}
        for (s, t), v in f.entries.items():
            for b, _db in C2.module.generators:
                ent[(tensor_name(s, b), tensor_name(t, b))] = v
        return GradedMap(module, module, degree, ent)

    def right_map(f: GradedMap, degree: int, signed: bool) -> GradedMap:
        ent = {}
        for a, da in C1.module.generators:
            sign = -1 if (signed and da % 2) else 1
            for (s, t), v in f.entries.items():
                ent[(tensor_name(a, s), tensor_name(a, t))] = sign * v
        return GradedMap(module, module, degree, ent)

    d = left_map(C1.d, -1) + right_map(C2.d, -1, signed=True)
    u1 = left_map(C1.u_action, -2) if C1.u_action is not None else None
    u2 = right_map(C2.u_action, -2, signed=False) if C2.u_action is not None else None
    y1 = left_map(C1.y_action, 1) if C1.y_action is not None else None
    y2 = right_map(C2.y_action, 1, signed=True) if C2.y_action is not None else None
    return TensorResult(ChainComplex(module, d, p=C1.p), u1, u2, y1, y2)


# ---------------------------------------------------------------------------
# p-morphisms
# ---------------------------------------------------------------------------

class PMorphism(_Sealed):
    """A chain map together with its U-commutation witness.

    Invariants: phi.d1 - (-1)^{deg phi} d2.phi = 0 and
    phi.U1 - U2.phi + (-1)^{deg phi} k_phi.d1 + d2.k_phi = 0.  Every part
    is immutable, so ``laws`` keeps the verdict in ``_verdict`` once it is
    known, and ``verify`` reads it.
    """

    __slots__ = ("source", "target", "phi", "k_phi", "_verdict")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 phi: GradedMap, k_phi: GradedMap):
        if k_phi.degree != phi.degree - 1:
            raise ChainError("k_phi must have degree deg(phi) - 1")
        super().__init__(source, target, phi, k_phi, None)

    def u_defect(self) -> GradedMap:
        if self.source.u_action is None or self.target.u_action is None:
            raise ChainError("both complexes need U-actions")
        sign = -1 if self.phi.degree % 2 else 1
        return (_defect(self.phi, self.source.u_action, self.target.u_action)
                + (self.k_phi @ self.source.d).scale(sign)
                + (self.target.d @ self.k_phi))

    def laws(self, tag: str, u_tag: str) -> Iterator[Check]:
        """The Checks of the two invariants, under tag and u_tag, each
        judged by ``_law`` when asked for."""
        p = self.source.p
        chain = _law(tag, _defect(self.phi, self.source.d, self.target.d), p)
        if not chain.ok:
            self._memo("_verdict", False)
        yield chain
        u = _law(u_tag, self.u_defect(), p)
        if chain.ok:
            self._memo("_verdict", u.ok)
        yield u

    def law(self, tag: str) -> Check:
        """The Check under tag that this is a p-morphism."""
        chain = next(laws := self.laws(tag, tag))
        return next(laws) if chain.ok else chain

    def verify(self) -> bool:
        return (self.law("p-morphism").ok if self._verdict is None
                else self._verdict)


# ---------------------------------------------------------------------------
# Induced maps on homology and exactness certificates
# ---------------------------------------------------------------------------

class DegreeMapInfo(NamedTuple):
    source_group: AbelianGroup
    target_group: AbelianGroup
    matrix: IntMatrix          # canonical coords of target x canonical of source
    injective: bool
    surjective: bool

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.surjective


class InducedMap(NamedTuple):
    degree: int
    by_degree: Dict[int, DegreeMapInfo]

    def iso_on(self, window: Tuple[int, int]) -> bool:
        lo, hi = window
        for j in range(lo, hi + 1):
            inf = self.by_degree.get(j)
            if inf is None:
                continue
            if not inf.isomorphism:
                return False
        return True


def _flags(arrow: "_HomologyArrow", j: int) -> Tuple[bool, bool]:
    """(injective, surjective) of the arrow's class matrix F at degree j:
    ranks over F_p, over Z the arrow's kept factorization of [F | torsion]."""
    F = arrow.matrix(j)
    p = arrow.target.p
    if p:
        rank = field_rank(F, p)
        return rank == F.cols, rank == F.rows
    tgt = _presentation(arrow.target, j + arrow.degree)
    res = arrow.factored(j)
    # surjective: columns of F plus torsion relations generate the target
    surj = (len(res.factors) == tgt.rank_coords()
            and all(d == 1 for d in res.factors))
    # injective: preimage of the relation lattice lies in the source
    # relations
    inj = _presentation(arrow.source, j).columns_are_zero(
        _kernel_head(res, F.cols))
    return inj, surj


def induced_on_homology(f: GradedMap, source: ChainComplex, target: ChainComplex,
                        window: Optional[Tuple[int, int]] = None) -> InducedMap:
    """Lift classes to cycles, push forward, re-express in the target
    presentation; flags injective/surjective/iso per degree."""
    if not is_chain_map(f, source, target):
        raise NotAChainMap("induced_on_homology needs a chain map")
    if window is None:
        sw = source.module.support_window()
        if sw is None:
            return InducedMap(f.degree, {})
        window = sw
    arrow = _HomologyArrow(f, source, target)
    out = {}
    for j, spg in present_homology(source, window).items():
        tpg = _presentation(target, j + f.degree)
        out[j] = DegreeMapInfo(spg.group, tpg.group, arrow.matrix(j),
                               *_flags(arrow, j))
    return InducedMap(f.degree, out)


class _HomologyArrow:
    """The map of homology presentations induced by a chain-level map f.

    f is an honest chain map or a snake-lemma composite (retraction . d .
    section); either way it sends cycles to cycles and boundaries to
    boundaries.  Class matrices are memoized per source degree, and the
    presentations they are expressed in come from the complexes'
    reductions.
    ``_push`` reads a class matrix in C', a column per canonical generator
    of the source, with no other matrix built.

    Over Z it keeps beside them, per source degree, the one factorization
    of [class matrix | target torsion] (``factored``) that ``_flags`` and
    both long exact sequence nodes the arrow meets read.  Keeping it is
    sound because f, both complexes and their presentations never change.
    """

    def __init__(self, f: GradedMap, source: ChainComplex,
                 target: ChainComplex):
        self.f = f
        self.source = source
        self.target = target
        self.degree = f.degree
        self._matrices: Dict[int, IntMatrix] = {}
        self._factored: Dict[int, SNFResult] = {}

    def matrix(self, j: int) -> IntMatrix:
        """Canonical coordinates in the target at degree j + degree of the
        images of the canonical generators of the source at degree j, read
        in C' by ``_push``; empty, with nothing pushed, when the source
        group is trivial."""
        F = self._matrices.get(j)
        if F is None:
            src = _presentation(self.source, j)
            tgt = _presentation(self.target, j + self.degree)
            F = self._matrices[j] = (
                self._push(j, src, tgt) if src.rank_coords()
                else IntMatrix._trusted(tgt.rank_coords(), 0, {}))
        return F

    def factored(self, j: int) -> SNFResult:
        """The Smith form of [matrix(j) | torsion relations of the target at
        j + degree], over Z, computed once per source degree."""
        res = self._factored.get(j)
        if res is None:
            tgt = _presentation(self.target, j + self.degree)
            res = self._factored[j] = snf(IntMatrix.hstack(
                [self.matrix(j), tgt.torsion_relation_columns()]))
        return res

    def _push(self, j: int, src: PresentedGroup, tgt: PresentedGroup
              ) -> IntMatrix:
        """The class matrix at source degree j: each canonical generator of
        ``src`` (of the source's C'_j) pushed as a sparse vector through
        iota, f, the target's cycle test d = 0 and pi, and read in ``tgt``'s
        coordinates, a torsion one mod its modulus (mod p over F_p).
        ``ChainError`` for a non-cycle in C or a nonzero coordinate at a
        generator that d' moves: the image of a cycle is not a cycle."""
        p, S, T = self.target.p, self.source, self.target
        s_red, t_red = reduction(S), reduction(T)
        s_kept = [S.module._index[nm]
                  for nm in s_red.complex.module.gens_in_degree(j)]
        t_kept = [T.module._index[nm] for nm in
                  t_red.complex.module.gens_in_degree(j + self.degree)]
        # (pi's row, coordinate, modulus) of each generator of the
        # target's C' that a class reads; a moved one has no coordinate
        nt = len(tgt.torsion_moduli)
        reads = [(t_red.pi_row(t_kept[r]), a,
                  tgt.torsion_moduli[a] if a < nt else p)
                 for a, r in enumerate(tgt.torsion_rows + tgt.free_rows)]
        reads += [(t_red.pi_row(t_kept[r]), None, 0) for r in tgt._sources]
        names, t_index = S.module.generators, T.module._index
        f_rows, d_rows = self.f._rows(), T.d._rows()
        out = {}
        for c, r in enumerate(src.torsion_rows + src.free_rows):
            y = _apply({names[h][0]: v
                        for h, v in s_red.iota_column(s_kept[r]).items()},
                       f_rows.get, p)
            if _apply(y, d_rows.get, p):
                raise ChainError("image of a cycle is not a cycle")
            y = {t_index[t]: v for t, v in y.items()}
            for row, a, m in reads:
                # pi(y) there, summed over the shorter of pi's row and y
                u, w = (row, y) if len(row) < len(y) else (y, row)
                if v := sum(x * w.get(h, 0) for h, x in u.items()):
                    if a is None:
                        raise ChainError("image of a cycle is not a cycle")
                    if m and not (v := v % m):
                        continue
                    out[(a, c)] = v
        return IntMatrix._trusted(tgt.rank_coords(), src.rank_coords(), out)


def _apply(vector: Dict, column, p: int) -> Dict:
    """The sparse vector sum of v * column(s) over the entries s: v of
    ``vector`` (a None column is zero), mod p."""
    out: Dict = {}
    for s, v in vector.items():
        _axpy(out, column(s) or {}, v, p)
    return out


def exactness_pair(incoming: _HomologyArrow, outgoing: _HomologyArrow,
                   j: int) -> Tuple[bool, bool]:
    """(image contained in kernel, image equals kernel) at degree j of the
    middle complex where the arrows meet over one ring; incoming lands in
    degree j, outgoing leaves from it.  Where the reductions of the middle
    complex at j and of F's source are both empty, the node is exact with
    no class matrix built: F has no column, so there is no cycle to test.
    After F's cycle test a trivial middle group is exact by shape (F has no
    rows, G no columns).  At every other node G.F is tested against the
    target's coordinates, which over F_p are read mod p, and im F = ker G
    then holds over F_p when rank F + rank G = dim of the middle group
    (``field_rank``), over Z by ``_lattice_exactness``."""
    p = incoming.target.p
    if (incoming.target is not outgoing.source
            or incoming.source.p != p or outgoing.target.p != p):
        raise ChainError("arrows do not meet at one complex over one ring")
    mid = _presentation(incoming.target, j)
    if not (mid.dim
            or _presentation(incoming.source, j - incoming.degree).dim):
        return True, True
    F = incoming.matrix(j - incoming.degree)
    if not mid.rank_coords():
        return True, True
    G = outgoing.matrix(j)
    tgt = _presentation(outgoing.target, j + outgoing.degree)
    if not tgt.columns_are_zero(G @ F):
        return False, False
    if p:
        return True, field_rank(F, p) + field_rank(G, p) == mid.rank_coords()
    return True, _lattice_exactness(incoming, outgoing, j)


def _lattice_exactness(incoming: _HomologyArrow, outgoing: _HomologyArrow,
                       j: int) -> bool:
    """Whether ker G is contained in im F over Z at degree j, between the
    class matrices F in and G out, given G.F = 0 in the target group:
    ker G, read off the outgoing arrow's kept factorization of [G | target
    torsion], solves through the incoming one's of [F | middle torsion] (a
    zero kernel needs none), so neighbouring nodes share each
    factorization."""
    ker = _kernel_head(outgoing.factored(j), outgoing.matrix(j).cols)
    return ker.is_zero() or _back_substitute(
        incoming.factored(j - incoming.degree), ker) is not None


def verify_exact_at(complexes: Sequence[ChainComplex], maps: Sequence[GradedMap],
                    position: int, window: Tuple[int, int]) -> bool:
    """Homology-level exactness at ``complexes[position]`` for each degree in
    the window; ``maps[i]`` goes from complexes[i] to complexes[i+1].

    Raises CompositionNonzero when the image fails to land inside the kernel
    (the "composes to zero on homology" precondition).
    """
    if not (0 < position < len(complexes) - 1):
        raise ChainError("position must be interior to the sequence")
    if len(maps) != len(complexes) - 1:
        raise ChainError("need exactly one map per adjacent pair")
    fin = maps[position - 1]
    fout = maps[position]
    for f, s, t in ((fin, complexes[position - 1], complexes[position]),
                    (fout, complexes[position], complexes[position + 1])):
        if not is_chain_map(f, s, t):
            raise NotAChainMap("verify_exact_at expects chain maps")
    incoming = _HomologyArrow(fin, complexes[position - 1], complexes[position])
    outgoing = _HomologyArrow(fout, complexes[position], complexes[position + 1])
    lo, hi = window
    for j in range(lo, hi + 1):
        contained, equal = exactness_pair(incoming, outgoing, j)
        if not contained:
            raise CompositionNonzero(
                f"composite is nonzero on homology at degree {j}")
        if not equal:
            return False
    return True

