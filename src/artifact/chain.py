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
by greedy cancellation of unit entries of d to a complex C' on a subset of
its generators, with chain maps iota: C' -> C and pi: C -> C' such that
pi . iota = 1.  Over F_p every nonzero entry is a unit and d' = 0, so
H(C') = C'; over Z only +-1 entries cancel and C' keeps the rest for the
Smith normal form.  Every ``PresentedGroup`` presents H(C') at one degree,
on C'_j; nothing reads a class in C.  The class matrix of a map f is that
of pi . f . iota, pushed as sparse vectors from C' to C' through iota, f,
the cycle test d = 0 and pi (``_HomologyArrow._push``), with no degree
block built.  Over F_p an exactness node of a long exact sequence is then
decided by ranks.

Many constructions are block matrices over renamed copies of generator
sets: the cone, the doubling [[d, 0], [U, -d]], the hat/bar/check assembly,
the tower levels.  ``_renamed_module`` lists pieces' generators in order,
each renamed by a format such as ``"{}.y"`` and shifted in degree, and
``_block_map`` sums blocks (map, source format, target format, sign) into
a checked ``GradedMap``.  A window truncation of a renamed map is
``circle._restricted`` of a ``_block_map`` over the untruncated piece; the
one per-exponent exception, ``circle._slotwise``, has no such piece.

Results are records: ``typing.NamedTuple`` classes, read-only and compared
by their fields.  A record that validates its values puts ``_Checked``
before its NamedTuple base.  ``flavors.FlavorBundle``, which keeps its
p-morphisms and its doubled pieces privately, is the one slotted
``_Sealed`` class, compared by identity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactlin import (AbelianGroup, IntMatrix, PresentedGroup, SNFResult,
                       TRIVIAL_GROUP, CompositionNonzero, _axpy,
                       _back_substitute, _kernel_head, field_rank, is_prime,
                       snf)


class ChainError(Exception):
    pass


class NotAChainMap(ChainError):
    pass


class ModulusUnsupported(ChainError):
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


class _Sealed:
    """Built from one value per slot, in slot order; read-only after that."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Graded modules and maps
# ---------------------------------------------------------------------------

class GradedModule:
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
        for slot, value in zip(GradedModule.__slots__,
                               (gens, modulus, index, by_degree)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("GradedModule is immutable")

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


class GradedMap:
    """Homogeneous linear map of fixed degree, stored generator-to-generator.
    The constructor checks every entry (known generators, homogeneity); the
    closed operations ``+``, ``-``, ``scale`` and ``@`` combine checked maps
    and build their results unchecked, by ``_trusted``.  The entries grouped
    by source generator, which ``@``, ``block``, ``image_of``, class
    matrices and the flavor engine's slotwise maps read, are built on first
    read."""

    __slots__ = ("source", "target", "degree", "entries", "_by_src", "_blocks")

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
                    raise ChainError(
                        f"entry {s!r}->{t!r} violates degree {degree} homogeneity")
                clean[(s, t)] = v
        self._fill(source, target, degree, clean)

    def _fill(self, source: GradedModule, target: GradedModule, degree: int,
              entries: Dict[Tuple[str, str], int]) -> None:
        for name, value in zip(GradedMap.__slots__, (
                source, target, degree, entries, None, {})):
            object.__setattr__(self, name, value)

    def _rows(self) -> Dict[str, Dict[str, int]]:
        """The entries grouped by source generator: {src: {dst: coeff}}."""
        if self._by_src is None:
            by_src: Dict[str, Dict[str, int]] = {}
            for (s, t), v in self.entries.items():
                by_src.setdefault(s, {})[t] = v
            object.__setattr__(self, "_by_src", by_src)
        return self._by_src

    @classmethod
    def _trusted(cls, source: GradedModule, target: GradedModule, degree: int,
                 entries: Dict[Tuple[str, str], int]) -> "GradedMap":
        """A map from nonzero entries already known to be homogeneous."""
        f = cls.__new__(cls)
        f._fill(source, target, degree, entries)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("GradedMap is immutable")

    @classmethod
    def zero(cls, source: GradedModule, target: GradedModule, degree: int) -> "GradedMap":
        return cls(source, target, degree)

    @classmethod
    def identity(cls, module: GradedModule) -> "GradedMap":
        return cls(module, module, 0, {(n, n): 1 for n in module.names()})

    def is_zero(self) -> bool:
        return not self.entries

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
        if other.target is not self.source and other.target != self.source:
            raise ChainError("composition source/target mismatch")
        ent: Dict[Tuple[str, str], int] = {}
        rows = self._rows()
        for (s, m), v in other.entries.items():
            row = rows.get(m)
            if not row:
                continue
            for t, w in row.items():
                k = (s, t)
                acc = ent.get(k, 0) + v * w
                if acc:
                    ent[k] = acc
                else:
                    ent.pop(k, None)
        # degrees add up exactly only when the gradings share one modulus
        make = (GradedMap._trusted if other.source.modulus
                == self.source.modulus == self.target.modulus else GradedMap)
        return make(other.source, self.target, self.degree + other.degree, ent)

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

    def block(self, j: int) -> IntMatrix:
        """Matrix of the degree-j piece: columns are source generators of
        degree j, rows are target generators of degree j + self.degree, both
        in module order.  Memoized per pair of reduced degrees."""
        key = (self.source.reduce_degree(j),
               self.target.reduce_degree(j + self.degree))
        M = self._blocks.get(key)
        if M is None:
            src = self.source.gens_in_degree(j)
            tgt = self.target.gens_in_degree(j + self.degree)
            tpos = {n: i for i, n in enumerate(tgt)}
            ent = {}
            rows = self._rows()
            for c, s in enumerate(src):
                for t, v in rows.get(s, {}).items():
                    r = tpos.get(t)
                    if r is not None:
                        ent[(r, c)] = v
            M = self._blocks[key] = IntMatrix._trusted(len(tgt), len(src), ent)
        return M

    def nonzero_witness(self, p: int = 0) -> Optional[Tuple[str, str]]:
        for (s, t), v in sorted(self.entries.items()):
            if p == 0 or v % p:
                return (s, t)
        return None


def _defect(f: GradedMap, a: GradedMap, b: GradedMap) -> GradedMap:
    """f.a - (-1)^{|f||a|} b.f, zero when f intertwines a with b."""
    sign = -1 if (f.degree % 2) and (a.degree % 2) else 1
    return (f @ a) - (b @ f).scale(sign)


def commutator(f: GradedMap, g: GradedMap) -> GradedMap:
    """Graded commutator [f, g] = f.g - (-1)^{|f||g|} g.f."""
    return _defect(f, g, g)


def is_chain_map(f: GradedMap, source: "ChainComplex", target: "ChainComplex") -> bool:
    """f.d1 - (-1)^{deg f} d2.f = 0 (mod the ring of the complexes)."""
    return _defect(f, source.d, target.d).is_zero_mod(source.p)


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """A graded module with a square-zero degree -1 differential, optional
    circle actions U (degree -2) and Y (degree +1), over Z (p=0) or F_p.

    The complex keeps a memo of its homology presentations, one per degree
    (per reduced degree when the grading is periodic), and beside it its
    ``reduction``: a smaller complex C' with chain maps iota: C' -> C and
    pi: C -> C', pi . iota = 1.  Both are filled the first time a degree is
    presented; presentations are of C' (over F_p d' = 0), and a class of C
    reaches one only through iota and pi.  Both depend only on ``d`` and
    ``p``, fixed at construction, so they never go stale; they live and die
    with this object, are never shared with another complex, and hold no
    reference back to it, so the complex is freed by reference counting
    alone.  ``_valid`` records that its fixed laws passed."""

    __slots__ = ("module", "d", "u_action", "y_action", "p", "_presented",
                 "_reduced", "_valid")

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
        for slot, value in zip(ChainComplex.__slots__, (
                module, d, u_action, y_action, p, {}, None, False)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    def with_actions(self, u_action: Optional[GradedMap] = None,
                     y_action: Optional[GradedMap] = None) -> "ChainComplex":
        return ChainComplex(self.module, self.d,
                            u_action if u_action is not None else self.u_action,
                            y_action if y_action is not None else self.y_action,
                            self.p)

    def degrees(self) -> List[int]:
        return self.module.degrees()

    def __repr__(self) -> str:
        extras = "".join([", U" if self.u_action is not None else "",
                          ", Y" if self.y_action is not None else ""])
        ring = "Z" if self.p == 0 else f"F{self.p}"
        return f"ChainComplex({len(self.module)} gens over {ring}{extras})"


class Check(NamedTuple):
    """One verdict, named by the tag a report prints.  ``witness`` locates
    a failure where the check can: a generator pair for a law, the first
    failing (location, degree) of a long exact sequence, the first failing
    degree of a square.  A long exact sequence that fails with witness
    None had no node to check.  A witness may also be a message naming the
    failure, which reports print beneath the check as a ``detail``
    record."""

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
    object.__setattr__(C, "_valid", True)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

class HomologyTable:
    """Map degree -> AbelianGroup; degrees outside the support are trivial."""

    __slots__ = ("table",)

    def __init__(self, table: Dict[int, AbelianGroup]):
        object.__setattr__(self, "table",
                           {j: g for j, g in table.items() if not g.is_trivial()})

    def __setattr__(self, name, value):
        raise AttributeError("HomologyTable is immutable")

    def __getitem__(self, j: int) -> AbelianGroup:
        return self.table.get(j, TRIVIAL_GROUP)

    def degrees(self) -> List[int]:
        return sorted(self.table)

    def is_trivial(self) -> bool:
        return not self.table

    def shifted(self, s: int) -> "HomologyTable":
        """Table T with T[j] = self[j - s] (content moved up by s)."""
        return HomologyTable({j + s: g for j, g in self.table.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, HomologyTable) and self.table == other.table

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}: {self.table[j]}" for j in self.degrees())
        return f"HomologyTable({{{inner}}})"


def present_homology(C: ChainComplex, window: Optional[Tuple[int, int]] = None
                     ) -> Dict[int, PresentedGroup]:
    """PresentedGroup for each degree (in the window, or the full support
    extended one step so trivial edges are visible).

    Each group presents the homology of C's reduction C' at that degree, on
    C'_j: its representatives and coordinates are those of C', and classes
    of C reach it only through ``_HomologyArrow._push``.  Where d' = 0
    (always over F_p) every group is plain: the identity on C'_j, built
    from its dimension alone, without any block of d' or any
    factorization."""
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
    """The homology presentation of C at degree j, from C's memo: that of
    C' at j, on C'_j (plain from dim C'_j if d' = 0).  Where C'_j is empty
    H_j(C) = 0, read by ``_reduced_dim``, and LES nodes, class matrices and
    the ladder's squares ask for no presentation."""
    j = C.module.reduce_degree(j)
    pg = C._presented.get(j)
    if pg is None:
        d = reduction(C).complex.d
        if d.is_zero():
            n = _reduced_dim(C, j)
            d_in, d_out = (IntMatrix._trusted(n, 0, {}),
                           IntMatrix._trusted(0, n, {}))
        else:
            d_in, d_out = d.block(j + 1), d.block(j)
        pg = C._presented[j] = PresentedGroup.from_pair(d_in, d_out, C.p)
    return pg


def _reduced_dim(C: ChainComplex, j: int) -> int:
    """dim C'_j of C's reduction, read from its module's degree index.  At
    0, H_j(C) = 0 over Z and over F_p, with no presentation built."""
    module = reduction(C).complex.module
    return len(module._by_degree.get(module.reduce_degree(j), ()))


class Reduction(NamedTuple):
    """A complex C' on a subset of C's generators with chain maps
    iota: C' -> C and pi: C -> C' such that pi . iota = 1, so both induce
    inverse isomorphisms on homology.

    The maps are ``_reduce``'s sparse record, indexed by C's module: only
    the columns of iota and the rows of pi that differ from the identity,
    each kept under its generator of C'.  ``iota_column`` and ``pi_row``
    read them."""
    complex: ChainComplex
    iota_cols: Dict[int, Dict[int, int]]
    pi_rows: Dict[int, Dict[int, int]]

    def iota_column(self, g: int) -> Dict[int, int]:
        """iota(g) for a kept generator g; indices of C's module."""
        return self.iota_cols.get(g, {g: 1})

    def pi_row(self, g: int) -> Dict[int, int]:
        """<pi(h), g> by h for a kept generator g; indices of C's module."""
        return self.pi_rows.get(g, {g: 1})


def reduction(C: ChainComplex) -> Reduction:
    """C's reduction, computed once and kept in C's slot beside its
    presentation memo."""
    red = C._reduced
    if red is None:
        red = _reduce(C)
        object.__setattr__(C, "_reduced", red)
    return red


def _reduce(C: ChainComplex) -> Reduction:
    """Greedy cancellation of unit entries of d.

    Cancelling x against y, where d(x) = u y + r with u a unit, drops both
    generators; every a with <d a, y> = c != 0 gets d'(a) = d(a) - c u^-1 d(x)
    (which clears y), entries into x are dropped, iota(a) = a - c u^-1 x and
    pi(y) = -u^-1 r.  Among the units of d(x) the target with the smallest
    coboundary goes first (then the earliest generator), to keep fill-in
    low.  pi is kept transposed, a row per surviving generator, so one
    cancellation touches only the rows d(x) hits, and iota by columns, so
    it touches only the columns of y's coboundary.  Over F_p every nonzero
    entry is a unit and one pass over the generators in module order
    leaves d' = 0 (a generator with d = 0 keeps it); over Z only +-1 entries
    are cancelled, pass after pass until none is left.
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

    progress = True
    while progress:
        progress = False
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
                progress = not p

    keep = [g for g in range(len(gens)) if g not in dead]
    # both restrict the checked complex C: distinct names, homogeneous d
    module = GradedModule._trusted([gens[g] for g in keep], C.module.modulus)
    name = [nm for nm, _ in gens]
    d = GradedMap._trusted(module, module, -1, {
        (name[a], name[t]): v for a in keep for t, v in bd.get(a, {}).items()})
    return Reduction(ChainComplex(module, d, p=p), iota, pi)


def homology(C: ChainComplex, window: Optional[Tuple[int, int]] = None) -> HomologyTable:
    """Degreewise homology via exact kernels and images."""
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

class PMorphism:
    """A chain map together with its U-commutation witness.

    Invariants: phi.d1 - (-1)^{deg phi} d2.phi = 0 and
    phi.U1 - U2.phi + (-1)^{deg phi} k_phi.d1 + d2.k_phi = 0.  Every part
    is immutable, so ``verify`` keeps its verdict in ``_verdict``.
    """

    __slots__ = ("source", "target", "phi", "k_phi", "_verdict")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 phi: GradedMap, k_phi: GradedMap):
        if k_phi.degree != phi.degree - 1:
            raise ChainError("k_phi must have degree deg(phi) - 1")
        for slot, value in zip(PMorphism.__slots__,
                               (source, target, phi, k_phi, None)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("PMorphism is immutable")

    @classmethod
    def strict(cls, source: ChainComplex, target: ChainComplex,
               phi: GradedMap) -> "PMorphism":
        return cls(source, target, phi,
                   GradedMap.zero(phi.source, phi.target, phi.degree - 1))

    @classmethod
    def identity(cls, C: ChainComplex) -> "PMorphism":
        return cls.strict(C, C, GradedMap.identity(C.module))

    def u_defect(self) -> GradedMap:
        if self.source.u_action is None or self.target.u_action is None:
            raise ChainError("both complexes need U-actions")
        sign = -1 if self.phi.degree % 2 else 1
        return (_defect(self.phi, self.source.u_action, self.target.u_action)
                + (self.k_phi @ self.source.d).scale(sign)
                + (self.target.d @ self.k_phi))

    def verify(self) -> bool:
        if self._verdict is None:
            object.__setattr__(self, "_verdict", is_chain_map(
                self.phi, self.source, self.target)
                and self.u_defect().is_zero_mod(self.source.p))
        return self._verdict


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

    def info(self, j: int) -> Optional[DegreeMapInfo]:
        return self.by_degree.get(j)

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
    ker, src = _kernel_head(res, F.cols), _presentation(arrow.source, j)
    inj = all(src.coords_are_zero([ker[(i, c)] for i in range(ker.rows)])
              for c in range(ker.cols))
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
    presentations they are expressed in come from the complexes' memos.

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
        in C' by ``_push``; empty when the source group is trivial, and then
        with no source presentation either when the source's reduction is
        empty at j."""
        F = self._matrices.get(j)
        if F is None:
            src = (_reduced_dim(self.source, j)
                   and _presentation(self.source, j))
            tgt = _presentation(self.target, j + self.degree)
            F = (tgt.coord_matrix(self._push(j, src.representatives()))
                 if src and src.rank_coords()
                 else IntMatrix._trusted(tgt.rank_coords(), 0, {}))
            if F is None:
                raise ChainError("image of a cycle is not a cycle")
            self._matrices[j] = F
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

    def _push(self, j: int, reps: IntMatrix) -> IntMatrix:
        """pi . f . iota of the columns of ``reps`` (vectors of the source's
        C'_j), each pushed as a sparse vector through iota's columns, f's
        rows, the target's cycle test d = 0 (else ``ChainError``) and pi's
        rows."""
        p, S, T = self.target.p, self.source, self.target
        s_red, t_red = reduction(S), reduction(T)
        s_kept = [S.module._index[nm]
                  for nm in s_red.complex.module.gens_in_degree(j)]
        t_kept = [T.module._index[nm] for nm in
                  t_red.complex.module.gens_in_degree(j + self.degree)]
        names, t_index = S.module.generators, T.module._index
        f_rows, d_rows = self.f._rows(), T.d._rows()
        cols: Dict[int, Dict[int, int]] = {}
        for (r, c), v in reps.entries.items():
            cols.setdefault(c, {})[s_kept[r]] = v
        out = {}
        for c, col in cols.items():
            x = _apply(col, s_red.iota_column, p)
            y = _apply({names[g][0]: v for g, v in x.items()}, f_rows.get, p)
            if _apply(y, d_rows.get, p):
                raise ChainError("image of a cycle is not a cycle")
            y = {t_index[t]: v for t, v in y.items()}
            for r, s in enumerate(t_kept):
                # <pi(y), s>, summed over the shorter of pi's row and y
                row = t_red.pi_row(s)
                a, b = (row, y) if len(row) < len(y) else (y, row)
                if v := sum(w * b.get(g, 0) for g, w in a.items()):
                    out[(r, c)] = v
        return IntMatrix._trusted(len(t_kept), reps.cols, out)


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
    degree j, outgoing leaves from it.  After F's cycle test a trivial
    middle group is exact by shape (F has no rows, G no columns); other
    nodes by rank arithmetic over F_p, over Z by ``_lattice_exactness``.
    Where the reductions of the middle complex at j and of F's source are
    both empty, the node is exact with no presentation or class matrix
    built: F has no column, so there is no cycle to test."""
    p = incoming.target.p
    if (incoming.target is not outgoing.source
            or incoming.source.p != p or outgoing.target.p != p):
        raise ChainError("arrows do not meet at one complex over one ring")
    if not (_reduced_dim(incoming.target, j)
            or _reduced_dim(incoming.source, j - incoming.degree)):
        return True, True
    mid = _presentation(incoming.target, j)
    F = incoming.matrix(j - incoming.degree)
    G = outgoing.matrix(j)
    if not mid.rank_coords():
        return True, True
    if p:
        return _rank_exactness(F, G, mid.rank_coords(), p)
    return _lattice_exactness(incoming, outgoing, j)


def _rank_exactness(F: IntMatrix, G: IntMatrix, dim_mid: int,
                    p: int) -> Tuple[bool, bool]:
    """Exactness of the class matrices F into and G out of a middle group
    of dimension dim_mid over F_p: G.F = 0, and then im F = ker G exactly
    when rank F + rank G = dim_mid: ranks only, by ``field_rank``."""
    contained = (G @ F).mod(p).is_zero()
    equal = contained and field_rank(F, p) + field_rank(G, p) == dim_mid
    return contained, equal


def _lattice_exactness(incoming: _HomologyArrow, outgoing: _HomologyArrow,
                       j: int) -> Tuple[bool, bool]:
    """Exactness over Z at degree j, between the class matrices F in and G
    out: G.F is zero in the target group, and then ker G, read off the
    outgoing arrow's kept factorization of [G | target torsion], solves
    through the incoming one's of [F | middle torsion] (a zero kernel needs
    none), so neighbouring nodes share each factorization."""
    F = incoming.matrix(j - incoming.degree)
    G = outgoing.matrix(j)
    tgt = _presentation(outgoing.target, j + outgoing.degree)
    GF = G @ F
    if not all(tgt.coords_are_zero([GF[(i, c)] for i in range(GF.rows)])
               for c in range(GF.cols)):
        return False, False
    ker = _kernel_head(outgoing.factored(j), G.cols)
    return True, (ker.is_zero() or _back_substitute(
        incoming.factored(j - incoming.degree), ker) is not None)


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

