"""Laurent-coefficient complexes and connected-sum product models.

A ``FilteredComplex`` stores its differential as a matrix of finite Laurent
polynomials in a degree -2 variable; degree homogeneity (deg(dst) =
deg(src) - 1 + 2*exponent) pins the exponent of every entry, and the
nonnegativity of those exponents is exactly what makes the exponent >= 0
span a subcomplex.  ``cm_flavors`` expands the Laurent data to four
Z-graded flavor complexes on a degree window -- minus: exponents >= 0,
infinity: all, plus: the quotient by minus (exponents <= -1), hat: the
exponent-0 line -- tied together by the two standard short exact sequences
(minus into infinity onto plus; minus into minus by u onto hat), each with
degreewise exactness checks and homology-level certificates at window-safe
degrees.  The expansion and the sequences come from the engine behind
``circle.e_y``/``fundamental_sequences``, run on the Laurent range table:
there hat is the bottom line of minus, so the hat offset is 0 and the
projection onto hat has degree 0, where the u-range (whose hat is the top
line of plus) has offset 2.

The product side couples two U-complexes via ``chain.tensor`` with the
difference U-action u1 x 1 - 1 x u2 and feeds the doubled-complex functor.
``case1_check`` compares the doubled product against a truncated
polynomial model with vanishing differential; ``case2_check`` matches the
doubled product with a one-line exponent model, entry for entry, against
the flavor expansion of the doubled second factor; the witness of its
failing Check names the first mismatch.  ``verify_sum_maps`` audits
candidate gluing data (two map blocks each way plus homotopy blocks)
against the four block chain-map identities and both homotopy-composite
identities.

Conventions match chain.py: differentials have degree -1, a degree-d
chain map satisfies f.d - (-1)^d d.f = 0, and [a, b] is the graded
commutator (an anticommutator when both maps are odd).
"""

from typing import Dict, Iterable, List, NamedTuple, Tuple

from .chain import (
    ChainComplex,
    ChainError,
    Check,
    CheckReport,
    GradedMap,
    GradedModule,
    HomogeneityViolated,
    HomologyTable,
    _Checked,
    _block_map,
    _law,
    _require_valid,
    homology,
    tensor,
)
from .circle import (
    _LAURENT_LAYOUT,
    _U_LAYOUT,
    FLAVOR_TAGS,
    Flavor,
    FundamentalSequences,
    MissingUAction,
    ShiftReport,
    Window,
    _expand,
    _fundamental,
    _match_shift,
    _resolve_window,
    _restricted,
    e_y,
    s_u,
)
from .exactlin import AbelianGroup, _invariant_factors, _Sealed, is_prime

class PositivityViolated(ChainError):
    """A differential exponent is negative, so the exponent >= 0 span is
    not a subcomplex."""


# ---------------------------------------------------------------------------
# Filtered complexes over Laurent coefficients
# ---------------------------------------------------------------------------

class FilteredComplex(_Sealed):
    """Finitely many generators with a Laurent-polynomial differential.

    ``d_entries`` maps (src, dst) to a finite list of (exponent, coeff)
    pairs; the variable has degree -2, so homogeneity forces a single
    exponent per generator pair and every entry normalizes to at most one
    term.  The square of the differential is checked as a Laurent-matrix
    identity.
    """

    __slots__ = ("generators", "d_entries", "p")

    def __init__(self, generators: Iterable[Tuple[str, int]],
                 d_entries: Dict[Tuple[str, str], Iterable[Tuple[int, int]]],
                 p: int = 0):
        if p and not is_prime(p):
            raise ChainError(f"ring parameter {p} is neither 0 (Z) nor a prime")
        gens = tuple((str(n), int(d)) for n, d in generators)
        deg = {}
        for n, d in gens:
            if n in deg:
                raise ChainError(f"duplicate generator {n!r}")
            deg[n] = d
        entries: Dict[Tuple[str, str], Tuple[Tuple[int, int], ...]] = {}
        for (src, dst), terms in d_entries.items():
            if src not in deg or dst not in deg:
                raise ChainError(f"entry ({src!r}, {dst!r}) references an "
                                 "unknown generator")
            acc: Dict[int, int] = {}
            for n, c in terms:
                acc[int(n)] = acc.get(int(n), 0) + int(c)
            clean = tuple(sorted((n, c) for n, c in acc.items()
                                 if (c % p if p else c)))
            for n, _c in clean:
                if deg[dst] != deg[src] - 1 + 2 * n:
                    raise HomogeneityViolated(
                        f"entry ({src!r}, {dst!r}) exponent {n} breaks "
                        f"degree homogeneity: {deg[dst]} != "
                        f"{deg[src]} - 1 + {2 * n}")
            if clean:
                entries[(src, dst)] = clean
        super().__init__(gens, entries, int(p))
        self._check_square()

    def _check_square(self):
        adj: Dict[str, List[Tuple[str, int, int]]] = {}
        for (src, dst), terms in self.d_entries.items():
            for n, c in terms:
                adj.setdefault(src, []).append((dst, n, c))
        square: Dict[Tuple[str, str, int], int] = {}
        for a, outs in adj.items():
            for b, n1, c1 in outs:
                for c, n2, c2 in adj.get(b, ()):
                    key = (a, c, n1 + n2)
                    square[key] = square.get(key, 0) + c1 * c2
        for (a, c, n), v in square.items():
            if v % self.p if self.p else v:
                raise ChainError(
                    f"d.d != 0: ({a!r} -> {c!r}) exponent {n} has "
                    f"coefficient {v}")

    def __repr__(self) -> str:
        ring = "Z" if self.p == 0 else f"F{self.p}"
        return (f"FilteredComplex({len(self.generators)} gens, "
                f"{len(self.d_entries)} entries over {ring})")


def check_positivity(F: FilteredComplex) -> Check:
    """The ``positivity`` Check: every differential exponent is >= 0, so the
    exponent >= 0 span is closed under the differential.  The witness of a
    failure names the first entry with a negative exponent."""
    for key, terms in F.d_entries.items():
        if any(n < 0 for n, _ in terms):
            return Check("positivity", False,
                         f"negative differential exponent at {key}")
    return Check("positivity", True)


def validate_filtered(F: FilteredComplex) -> CheckReport:
    """Homogeneity and d.d = 0, both enforced when F is built, and positivity."""
    return CheckReport((Check("degree-homogeneity", True),
                        Check("d.d=0", True), check_positivity(F)))


# ---------------------------------------------------------------------------
# The four Laurent flavors and their fundamental sequences
# ---------------------------------------------------------------------------

def cm_flavors(F: FilteredComplex, window=None) -> FundamentalSequences:
    """Expand a positivity-passing filtered complex into the four flavor
    complexes on a window and certify both fundamental sequences: the
    exponent split 0 -> minus -> infinity -> plus -> 0 and the exponent
    shift 0 -> minus -> minus -> hat -> 0, degreewise at the chain level
    and through the long exact sequence at window-safe degrees.  A failing
    ``check_positivity`` raises ``PositivityViolated`` with its witness."""
    positivity = check_positivity(F)
    if not positivity.ok:
        raise PositivityViolated(positivity.witness)
    degrees = [d for _, d in F.generators]
    win = _resolve_window(degrees, window)
    terms = [(src, dst, n, c) for (src, dst), ts in F.d_entries.items()
             for n, c in ts]
    cm = _expand(F.generators, terms, _LAURENT_LAYOUT, FLAVOR_TAGS, win, F.p)
    return _fundamental(cm, _LAURENT_LAYOUT, degrees, win)


# ---------------------------------------------------------------------------
# The connected-sum product complex
# ---------------------------------------------------------------------------

class SumInput(_Checked, NamedTuple("SumInput", [("C1", ChainComplex),
                                                  ("C2hat", ChainComplex)])):
    """The two hat-flavor factors of a product complex; both must carry a
    U-action and validate over the same ring."""

    __slots__ = ()

    def _check(self):
        for label, C in (("C1", self.C1), ("C2hat", self.C2hat)):
            if C.module.modulus:
                raise ChainError(f"{label} must be Z-graded")
            if C.u_action is None:
                raise MissingUAction(f"{label} needs a U-action")
            _require_valid(C, f"{label} fails")
        if self.C1.p != self.C2hat.p:
            raise ChainError("ring mismatch")


def product_complex(S: SumInput) -> ChainComplex:
    """Tensor complex of the two factors with the difference U-action
    u1 x 1 - 1 x u2; the commutation law of the output is re-checked."""
    T = tensor(S.C1, S.C2hat)
    u_cup = T.u1 - T.u2
    out = T.complex.with_actions(u_action=u_cup)
    _require_valid(out, "product fails")
    return out


# ---------------------------------------------------------------------------
# Case 1: one factor is a truncated polynomial model with d = 0
# ---------------------------------------------------------------------------

def _polynomial_model(N: int, p: int) -> ChainComplex:
    """Generators x{m} (degree -2m) and x{m}y (degree 1-2m) for
    0 <= m <= N, zero differential, U = the x-shift truncated at the top
    exponent."""
    if N < 0:
        raise ChainError("truncation order must be >= 0")
    gens = []
    for m in range(N + 1):
        gens.append((f"x{m}", -2 * m))
        gens.append((f"x{m}y", 1 - 2 * m))
    module = GradedModule(gens)
    uent = {}
    for m in range(N):
        uent[(f"x{m}", f"x{m + 1}")] = 1
        uent[(f"x{m}y", f"x{m + 1}y")] = 1
    return ChainComplex(module, GradedMap.zero(module, module, -1),
                        u_action=GradedMap(module, module, -2, uent), p=p)


def _group_sum(a: AbelianGroup, b: AbelianGroup, p: int) -> AbelianGroup:
    """a + b; over F_p a dimension alone."""
    if p:
        return AbelianGroup(a.free_rank + b.free_rank)
    return AbelianGroup(a.free_rank + b.free_rank,
                        _invariant_factors(a.torsion + b.torsion))


def case1_check(C1: ChainComplex, N: int, window=None) -> ShiftReport:
    """Double the product of C1 with the truncated polynomial model and
    compare its homology against H(C1) tensored with a rank-two exterior
    line, up to a uniform shift on degrees the truncation cannot touch.

    Truncating the exponent at N only deletes generators in total degrees
    <= max(deg C1) - 2N, so the product side is trusted from two degrees
    above that and the model side on the whole window.  At shift s, model
    degree k is compared with product degree k + s where that degree is
    trusted; a model class whose partner is not trusted is left out."""
    if C1.u_action is None:
        raise MissingUAction("case1_check needs a U-action on C1")
    model = _polynomial_model(N, C1.p)
    P = product_complex(SumInput(C1, model))
    SU = s_u(P)
    win = _resolve_window(SU.module.degrees(), window)

    left = homology(SU)
    H1 = homology(C1)
    right = HomologyTable({t: _group_sum(H1[t], H1[t - 1], C1.p)
                           for t in range(win.lo, win.hi + 1)})

    degs = [d for _, d in C1.module.generators]
    if degs:
        trusted_from = max(degs) - 2 * N + 2
    else:
        trusted_from = win.lo
    safe_left = [j for j in range(win.lo, win.hi + 1) if j >= trusted_from]
    safe_right = list(range(win.lo, win.hi + 1))
    return _match_shift(left, right, safe_left, safe_right)


# ---------------------------------------------------------------------------
# Case 2: one factor is a one-line exponent model
# ---------------------------------------------------------------------------

def _degree_band(C: ChainComplex, lo: int, hi: int) -> ChainComplex:
    gens = [(n, d) for n, d in C.module.generators if lo <= d <= hi]
    module = GradedModule(gens)
    return ChainComplex(module, _restricted(C.d, module, module), p=C.p)


def case2_check(C: ChainComplex, flavor: Flavor, window=None) -> Check:
    """Entry-exact comparison of the two sides of the one-line product, as
    the ``eq:S=eq:E`` Check.

    Left: the product of the exponent model with C, doubled with the
    difference U-action and restricted to the window band.  Right: the
    flavor expansion of the doubled complex of C with its U negated (the
    difference action contributes the second factor with a minus sign).
    The generator identification u.u{n} x g x y^e -> g.y^e.u{n} reorders
    tensor factors past an even-degree line, so it carries no signs; it
    must be a degree-preserving bijection matching every differential
    entry.  The Check fails on a window with nothing to compare or at the
    first mismatch, and its witness is a message naming which."""
    tag = "eq:S=eq:E"
    if C.u_action is None:
        raise MissingUAction("case2_check needs a U-action")
    SU_neg = s_u(C.with_actions(u_action=C.u_action.scale(-1)))
    win = _resolve_window(SU_neg.module.degrees(), window)
    right = e_y(SU_neg, flavor, win)

    exponents = sorted({int(name.rsplit(".u", 1)[1])
                        for name in right.module.names()})
    if not exponents:
        return Check(tag, False, "nothing to compare in the window "
                     f"{win.lo}..{win.hi}")
    # the exponent model: the expansion of a single degree-0 point u, one
    # generator u.u{n} of degree -2n per exponent of the right side
    model = _expand([("u", 0)], (), _U_LAYOUT, (flavor.tag,), Window(
        -2 * exponents[-1], -2 * exponents[0]), C.p)[flavor.tag]
    P = product_complex(SumInput(model, C))
    band = _degree_band(s_u(P), win.lo, win.hi)

    rename: Dict[str, str] = {}
    for g in P.module.names():
        v, base = g.split("|", 1)
        n = v.rsplit(".u", 1)[1]
        rename[g] = f"{base}.u{n}"
        rename[f"{g}.y"] = f"{base}.y.u{n}"

    if len(band.module) != len(right.module):
        return Check(tag, False, "generator counts differ: "
                     f"{len(band.module)} vs {len(right.module)}")
    for name, dg in band.module.generators:
        target = rename[name]
        if target not in right.module:
            return Check(tag, False, f"no partner for {name!r} "
                         f"(expected {target!r})")
        if right.module.degree_of(target) != dg:
            return Check(tag, False,
                         f"degree mismatch at {name!r} -> {target!r}")

    translated = GradedMap(
        right.module, right.module, -1,
        {(rename[s], rename[t]): v for (s, t), v in band.d.entries.items()})
    diff = translated - right.d
    if diff.is_zero_mod(C.p):
        return Check(tag, True)
    src, dst = diff.nonzero_witness(C.p)
    return Check(tag, False,
                 f"differential entry mismatch at ({src!r} -> {dst!r}): "
                 f"{translated.image_of(src).get(dst, 0)} vs "
                 f"{right.d.image_of(src).get(dst, 0)}")


# ---------------------------------------------------------------------------
# Candidate gluing maps and their identities
# ---------------------------------------------------------------------------

class ConnSumMaps(NamedTuple):
    """Candidate gluing data between a target complex and the doubled
    product: the two blocks of a column map in, the two blocks of a row
    map back, and the homotopies for both composites (one endomorphism
    block on the target, four blocks on the doubled product)."""

    sharp: ChainComplex
    V0: GradedMap
    V1: GradedMap
    V0d: GradedMap
    V1d: GradedMap
    H_sharp: GradedMap
    A: GradedMap
    B: GradedMap
    Cc: GradedMap
    D: GradedMap


# (source, target) of each map of ConnSumMaps after sharp, in field order:
# "s" is the module of sharp, "p" that of the product complex
_MAP_SHAPES = ("sp", "sp", "ps", "ps", "ss", "pp", "pp", "pp", "pp")


def verify_sum_maps(S: SumInput, M: ConnSumMaps) -> CheckReport:
    """Check the four block chain-map identities and both
    homotopy-composite identities, entry-exactly, for candidate maps
    between M.sharp and the doubled product of S.

    The column map sends c to (V0 c, V1 c), the row map sends (h, b) to
    V1d h + V0d b; parity bookkeeping requires the no-insertion blocks V0,
    V1d to be odd and the others even, with the block degrees one apart so
    the assembled maps are homogeneous.  Both composite identities compare
    against the identity plus the graded commutator of the differential
    with the supplied homotopy (an anticommutator: both are odd)."""
    P = product_complex(S)
    SP = s_u(P)
    u_cup = P.u_action
    sharp = M.sharp
    pm = P.module
    sm = sharp.module
    p = sharp.p
    if p != P.p:
        raise ChainError("ring mismatch")

    mods = {"s": sm, "p": pm}
    for name, f, (a, b) in zip(M._fields[1:], M[1:], _MAP_SHAPES):
        if f.source != mods[a] or f.target != mods[b]:
            raise ChainError(f"{name} does not fit the block decomposition")

    # the witness of a failure is the first block-degree rule that breaks
    d0, d1, d1d, d0d = (M.V0.degree, M.V1.degree, M.V1d.degree,
                        M.V0d.degree)
    broken = next((rule for holds, rule in (
        (d0 % 2 == 1, f"V0 degree {d0} is not odd"),
        (d1 == d0 - 1, f"V1 degree {d1} is not V0 - 1 = {d0 - 1}"),
        (d1d == -d0, f"V1d degree {d1d} is not -V0 = {-d0}"),
        (d0d == d1d + 1, f"V0d degree {d0d} is not V1d + 1 = {d1d + 1}"))
        if not holds), None)
    checks = [Check("eq:V-m:parity", broken is None, broken)]
    for tag, defect in (
            ("eq:chain-maps:V0", lambda: P.d @ M.V0 + M.V0 @ sharp.d),
            ("eq:chain-maps:V1",
             lambda: P.d @ M.V1 - M.V1 @ sharp.d - u_cup @ M.V0),
            ("eq:chain-maps:V0-dagger",
             lambda: sharp.d @ M.V0d - M.V0d @ P.d),
            ("eq:chain-maps:V1-dagger",
             lambda: sharp.d @ M.V1d + M.V1d @ P.d + M.V0d @ u_cup),
            ("eq:cob-comp:sharp",
             lambda: (M.V1d @ M.V0 + M.V0d @ M.V1 - GradedMap.identity(sm)
                      - sharp.d @ M.H_sharp - M.H_sharp @ sharp.d)),
            ("eq:cob-comp:product", lambda: _product_composite(SP, M))):
        try:
            checks.append(_law(tag, defect(), p))
        except ChainError as exc:  # maps that do not compose or add
            checks.append(Check(tag, False, str(exc)))
    return CheckReport(tuple(checks))


def _product_composite(SP: ChainComplex, M: ConnSumMaps) -> GradedMap:
    """V.V' - 1 - [d, H] on SP, with V, V' and H assembled from M."""
    sm, spm, Y = M.sharp.module, SP.module, "{}.y"
    V = _block_map(sm, spm, M.V0.degree, [
        (M.V0, "{}", "{}", 1), (M.V1, "{}", Y, 1)])
    Vd = _block_map(spm, sm, M.V1d.degree, [
        (M.V1d, "{}", "{}", 1), (M.V0d, Y, "{}", 1)])
    H = _block_map(spm, spm, 1, [
        (M.A, "{}", "{}", 1), (M.B, Y, "{}", 1),
        (M.Cc, "{}", Y, 1), (M.D, Y, Y, 1)])
    return V @ Vd - GradedMap.identity(spm) - SP.d @ H - H @ SP.d
