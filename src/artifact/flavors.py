"""Assembly of the three flavor complexes from balanced component data.

A balanced component system splits a complex into three graded pieces
(o = irreducible, s = stable reducible, u = unstable reducible) together
with sixteen structure maps counting the possible trajectory types.  The
flavor complexes are glued from the pieces by the grading rule

    hat_j   = o_j  (+)  u_j
    bar_j   = s_j  (+)  u_{j+1}
    check_j = o_j  (+)  s_j

so a u-generator of raw degree k lives in degree k - 1 of bar and in degree
k of hat.  The assembled differentials, U-endomorphisms, comparison maps
i / j / p and their commutation witnesses K_i / K_j / K_p are built from
fixed block formulas and then *every* law is judged by ``chain._law``, as
every identity here is; ``assemble`` keeps the passing Checks on the bundle
or raises ``AssemblyInconsistent`` with the first failing one (its tag in
report grammar, e.g. ``eq:U-i``, witnessed by a generator pair).

``cone_identities`` forms the mapping cone of p, whose total complex is
chain homotopy equivalent to check via explicit maps k and l, and verifies
the full identity pack relating the equivalence to the doubled (s_u)
complexes, including the three reduced commutator identities.

``tower_model`` produces the standard finite u-tower over a base complex:
generators g.x{n} for -N <= n <= N with x-shift as the reducible
U-endomorphism, truncated at the top.  ``ladder_check`` certifies the long
exact sequences and the comparison ladder this model is expected to satisfy,
and ``four_flavors`` packages the four flavor homology tables of a single
U-complex with their connecting certificates.  The cone of p and the
fundamental sequences of the doubled complexes are all built, checked and
certified by one function, ``circle._sequence``.
"""

from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

from .chain import (
    ChainComplex,
    ChainError,
    Check,
    CheckReport,
    GradedMap,
    GradedModule,
    HomologyTable,
    ModulusUnsupported,
    PMorphism,
    _Checked,
    _HomologyArrow,
    _block_map,
    _law,
    _presentation,
    _renamed_module,
    _require_valid,
    commutator,
    cone,
    cone_inclusion,
    cone_projection,
    homology,
    induced_on_homology,
)
from .circle import (
    _U_LAYOUT,
    FLAVOR_TAGS,
    FundamentalSequences,
    Window,
    _doubled,
    _e_y_slices,
    _fundamental,
    _les_check,
    _resolve_window,
    _restricted,
    _sequence,
    _slotwise,
    _su_map,
    fundamental_sequences,
    s_u,
)
from .exactlin import IntMatrix, _Sealed


class AssemblyInconsistent(ChainError):
    """Raised when assembled flavor data violates one of its laws.

    ``check`` is the Check of the first law that fails: its tag in report
    grammar, and as witness the generator pair of the defect's first
    nonzero entry.
    """

    def __init__(self, check: Check):
        self.check = check
        super().__init__(f"assembly violates {check.tag} at {check.witness}")


# ---------------------------------------------------------------------------
# Component data
# ---------------------------------------------------------------------------

# field -> (source piece, target piece, raw degree).  Raw degrees are taken
# between the pieces' own gradings; the +1 shift of u inside bar is what
# makes the boundary-crossing blocks (su and us) sit off the main degree.
_SHAPES: Dict[str, Tuple[str, str, int]] = {
    "d_oo": ("c_o", "c_o", -1),
    "d_os": ("c_o", "c_s", -1),
    "d_uo": ("c_u", "c_o", -1),
    "d_us": ("c_u", "c_s", -1),
    "dbar_ss": ("c_s", "c_s", -1),
    "dbar_uu": ("c_u", "c_u", -1),
    "dbar_su": ("c_s", "c_u", 0),
    "dbar_us": ("c_u", "c_s", -2),
    "u_oo": ("c_o", "c_o", -2),
    "u_uo": ("c_u", "c_o", -2),
    "u_os": ("c_o", "c_s", -2),
    "u_us": ("c_u", "c_s", -2),
    "ubar_ss": ("c_s", "c_s", -2),
    "ubar_uu": ("c_u", "c_u", -2),
    "ubar_su": ("c_s", "c_u", -1),
    "ubar_us": ("c_u", "c_s", -3),
}


class _ComponentFields(NamedTuple):
    c_o: GradedModule
    c_s: GradedModule
    c_u: GradedModule
    d_oo: GradedMap
    d_os: GradedMap
    d_uo: GradedMap
    d_us: GradedMap
    dbar_ss: GradedMap
    dbar_uu: GradedMap
    dbar_su: GradedMap
    dbar_us: GradedMap
    u_oo: GradedMap
    u_uo: GradedMap
    u_os: GradedMap
    u_us: GradedMap
    ubar_ss: GradedMap
    ubar_uu: GradedMap
    ubar_su: GradedMap
    ubar_us: GradedMap
    p: int = 0


class BalancedComponents(_Checked, _ComponentFields):
    """The three graded pieces and the sixteen block maps between them.

    Naming: ``d_xy`` is a differential-type count from piece x to piece y,
    ``u_xy`` the corresponding U-type count; the ``*bar_*`` maps are the
    reducible (bar-side) blocks.  Shapes and raw degrees are validated on
    construction; the homological laws are checked by ``assemble``.
    """

    __slots__ = ()

    def _check(self):
        for piece in (self.c_o, self.c_s, self.c_u):
            if piece.modulus:
                raise ModulusUnsupported(
                    "flavor assembly needs genuine Z-gradings")
        for name, (src, tgt, deg) in _SHAPES.items():
            f: GradedMap = getattr(self, name)
            if f.source != getattr(self, src) or f.target != getattr(self, tgt):
                raise ChainError(f"{name} must map {src} -> {tgt}")
            if f.degree != deg:
                raise ChainError(f"{name} must have raw degree {deg}")

    @classmethod
    def zeros(cls, c_o: GradedModule, c_s: GradedModule, c_u: GradedModule,
              p: int = 0, **maps: GradedMap) -> "BalancedComponents":
        """All-zero block maps except the ones supplied by keyword."""
        pieces = {"c_o": c_o, "c_s": c_s, "c_u": c_u}
        built = {}
        for name, (src, tgt, deg) in _SHAPES.items():
            built[name] = maps.pop(name, None) or GradedMap.zero(
                pieces[src], pieces[tgt], deg)
        if maps:
            raise ChainError(f"unknown block map(s): {sorted(maps)}")
        return cls(c_o=c_o, c_s=c_s, c_u=c_u, p=p, **built)


# generator-name formats of the three pieces inside an assembled module,
# and of the hat and bar halves of the cone of p
O, S, U = "o.{}", "s.{}", "u.{}"
H, B = "h.{}", "b.{}"


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

class FlavorBundle(_Sealed):
    """The three assembled complexes with their comparison maps.

    ``i``: bar -> check (degree 0), ``j``: check -> hat (degree 0),
    ``p``: hat -> bar (degree -1); ``k_i``/``k_j``/``k_p`` are the
    U-commutation witnesses, stored in their printed form (the p-morphism
    witness of j is ``-k_j``).  ``pm_i``/``pm_j``/``pm_p`` hand out one
    p-morphism each per bundle, so each is verified once, and ``_doubled``
    keeps ``_doubled_pieces``, so ``cone_identities`` and ``ladder_check``
    double each complex once per bundle; both are sound as the bundle is
    immutable.  A bundle built again from the same fields builds, doubles
    and judges its own (``laws``).
    """

    __slots__ = ("hat", "bar", "check", "i", "j", "p", "k_i", "k_j", "k_p",
                 "components", "_pms", "_doubled", "_laws")

    def __init__(self, hat: ChainComplex, bar: ChainComplex,
                 check: ChainComplex, i: GradedMap, j: GradedMap,
                 p: GradedMap, k_i: GradedMap, k_j: GradedMap,
                 k_p: GradedMap, components: BalancedComponents):
        super().__init__(
            hat, bar, check, i, j, p, k_i, k_j, k_p, components,
            (PMorphism(bar, check, i, k_i), PMorphism(check, hat, j, -k_j),
             PMorphism(hat, bar, p, k_p)), None, None)

    def pm_i(self) -> PMorphism:
        return self._pms[0]

    def pm_j(self) -> PMorphism:
        return self._pms[1]

    def pm_p(self) -> PMorphism:
        return self._pms[2]

    def laws(self) -> CheckReport:
        """The Checks of the twelve laws, judged once: ``assemble`` keeps
        the ones it judged, a copy judges its own when asked."""
        if self._laws is None:
            return self._memo("_laws", CheckReport(tuple(_assembly_laws(self))))
        return self._laws


def assemble(components: BalancedComponents) -> FlavorBundle:
    """Glue the flavor complexes and judge their laws one at a time; the
    bundle keeps the Checks and its p-morphisms their verdicts.  Raises
    AssemblyInconsistent with the first failing Check."""
    bundle, laws = _glue(components), []
    for check in _assembly_laws(bundle):
        if not check.ok:
            raise AssemblyInconsistent(check)
        laws.append(check)
    bundle._memo("_laws", CheckReport(tuple(laws)))
    return bundle


def _assembly_laws(b: FlavorBundle) -> Iterator[Check]:
    """The bundle's laws, each judged when asked for: d.d = 0, i, j and p
    chain maps, their U-witnesses (the p-morphisms keep their verdicts),
    and [d, U] = 0."""
    prime, cxs = b.hat.p, (b.hat, b.bar, b.check)
    for tag, cx in zip(("eq:hat-d", "eq:bar-d", "eq:check-d"), cxs):
        yield _law(tag, cx.d @ cx.d, prime)
    pm_laws = [pm.laws(tag, u_tag) for pm, tag, u_tag in zip(
        b._pms, ("eq:ijk:i", "eq:ijk:j", "eq:ijk:p"),
        ("eq:U-i", "eq:U-i:j", "eq:U-i:p"))]
    for laws in pm_laws + pm_laws:  # the chain-map laws, then the U laws
        yield next(laws)
    for tag, cx in zip(("eq:U-hat", "eq:U-bar", "eq:U-check"), cxs):
        yield _law(tag, commutator(cx.d, cx.u_action), prime)


def _glue(components: BalancedComponents) -> FlavorBundle:
    """The bundle of the block formulas, with no law judged."""
    c = components

    hat_mod = _renamed_module([(c.c_o, O, 0), (c.c_u, U, 0)])
    bar_mod = _renamed_module([(c.c_s, S, 0), (c.c_u, U, -1)])
    check_mod = _renamed_module([(c.c_o, O, 0), (c.c_s, S, 0)])

    d_hat = _block_map(hat_mod, hat_mod, -1, [
        (c.d_oo, O, O, 1),
        (c.d_uo, U, O, 1),
        (c.dbar_su @ c.d_os, O, U, -1),
        (c.dbar_uu + (c.dbar_su @ c.d_us), U, U, -1),
    ])
    d_bar = _block_map(bar_mod, bar_mod, -1, [
        (c.dbar_ss, S, S, 1),
        (c.dbar_us, U, S, 1),
        (c.dbar_su, S, U, 1),
        (c.dbar_uu, U, U, 1),
    ])
    d_check = _block_map(check_mod, check_mod, -1, [
        (c.d_oo, O, O, 1),
        (c.d_uo @ c.dbar_su, S, O, -1),
        (c.d_os, O, S, 1),
        (c.dbar_ss - (c.d_us @ c.dbar_su), S, S, 1),
    ])

    u_hat = _block_map(hat_mod, hat_mod, -2, [
        (c.u_oo, O, O, 1),
        (c.u_uo, U, O, 1),
        ((c.ubar_su @ c.d_os) - (c.dbar_su @ c.u_os), O, U, 1),
        (c.ubar_uu + (c.ubar_su @ c.d_us) - (c.dbar_su @ c.u_us),
         U, U, 1),
    ])

    u_bar = _block_map(bar_mod, bar_mod, -2, [
        (c.ubar_ss, S, S, 1),
        (c.ubar_su, S, U, 1),
        (c.ubar_us, U, S, 1),
        (c.ubar_uu, U, U, 1),
    ])
    u_check = _block_map(check_mod, check_mod, -2, [
        (c.u_oo, O, O, 1),
        (c.u_os, O, S, 1),
        ((c.d_uo @ c.ubar_su) + (c.u_uo @ c.dbar_su), S, O, -1),
        (c.ubar_ss - (c.d_us @ c.ubar_su) - (c.u_us @ c.dbar_su), S, S, 1),
    ])

    i_map = _block_map(bar_mod, check_mod, 0, [
        (c.d_uo, U, O, -1),
        (GradedMap.identity(c.c_s), S, S, 1),
        (c.d_us, U, S, -1),
    ])
    j_map = _block_map(check_mod, hat_mod, 0, [
        (GradedMap.identity(c.c_o), O, O, 1),
        (c.dbar_su, S, U, -1),
    ])
    p_map = _block_map(hat_mod, bar_mod, -1, [
        (c.d_os, O, S, 1),
        (c.d_us, U, S, 1),
        (GradedMap.identity(c.c_u), U, U, 1),
    ])
    k_i = _block_map(bar_mod, check_mod, -1, [
        (c.u_uo, U, O, -1),
        (c.u_us, U, S, -1),
    ])
    k_j = _block_map(check_mod, hat_mod, -1, [
        (c.ubar_su, S, U, -1),
    ])
    k_p = _block_map(hat_mod, bar_mod, -2, [
        (c.u_os, O, S, 1),
        (c.u_us, U, S, 1),
    ])

    return FlavorBundle(
        hat=ChainComplex(hat_mod, d_hat, u_action=u_hat, p=c.p),
        bar=ChainComplex(bar_mod, d_bar, u_action=u_bar, p=c.p),
        check=ChainComplex(check_mod, d_check, u_action=u_check, p=c.p),
        i=i_map, j=j_map, p=p_map, k_i=k_i, k_j=k_j, k_p=k_p,
        components=components)


# ---------------------------------------------------------------------------
# Mapping cone of p and its identity pack
# ---------------------------------------------------------------------------

def cone_total(bundle: FlavorBundle) -> ChainComplex:
    """The mapping cone of p with its block U-endomorphism [[U_hat, 0],
    [k_p, U_bar]]; generators keep their names under prefixes h. and b."""
    E = cone(bundle.p, bundle.hat, bundle.bar, tags=("h", "b"))
    u_e = _block_map(E.module, E.module, -2, [
        (bundle.hat.u_action, H, H, 1),
        (bundle.k_p, H, B, 1),
        (bundle.bar.u_action, B, B, 1)])
    return ChainComplex(E.module, E.d, u_action=u_e, p=bundle.hat.p)


def _doubled_pieces(bundle: FlavorBundle,
                    EC: Optional[ChainComplex] = None) -> tuple:
    """s_u of hat, bar and check; the doubled i, j and p, so a p-morphism
    that fails is refused before the cone is doubled; s_u of EC, the cone
    of p (``cone_total`` when not given); and the doubled cone's inclusion
    of bar and projection onto hat, as the doubled cone is the cone of the
    doubled pieces, name for name.  Kept in the bundle's ``_doubled`` slot
    on success (every piece is a function of the immutable bundle); a
    refused p-morphism keeps nothing and is refused again next time."""
    if bundle._doubled is None:
        su_hat, su_bar, su_check = (
            s_u(cx) for cx in (bundle.hat, bundle.bar, bundle.check))
        su_i = _su_map(bundle.pm_i(), su_bar, su_check)
        su_j = _su_map(bundle.pm_j(), su_check, su_hat)
        su_p = _su_map(bundle.pm_p(), su_hat, su_bar)
        sue = s_u(EC if EC is not None else cone_total(bundle))
        return bundle._memo("_doubled", (
            su_hat, su_bar, su_check, su_i, su_j, su_p, sue,
            cone_inclusion(sue, su_bar, "b"),
            cone_projection(sue, su_hat, "h")))
    return bundle._doubled


def cone_identities(bundle: FlavorBundle) -> CheckReport:
    """Verify the homotopy-equivalence identity pack for the cone of p.

    The comparison maps are k = [j; Pi_s]: check -> cone and l = [Pi_o, i]:
    cone -> check, with homotopy K = [[0, -Pi_u], [0, 0]].  The pack:
    the four strict identities (lk = 1, kl ~ 1, j = jbar.k, ki ~ ibar),
    the three reduced commutator identities, and their doubled lifts.
    """
    prime = bundle.hat.p
    EC = cone_total(bundle)
    hat_mod, bar_mod, check_mod = (
        cx.module for cx in (bundle.hat, bundle.bar, bundle.check))
    one_o, one_s, one_u = (GradedMap.identity(m)  # of c_o, c_s and c_u
                           for m in bundle.components[:3])

    pi_s = _block_map(check_mod, bar_mod, 0, [(one_s, S, S, 1)])
    pi_o = _block_map(hat_mod, check_mod, 0, [(one_o, O, O, 1)])
    pi_u = _block_map(bar_mod, hat_mod, 1, [(one_u, U, U, 1)])
    k_map = _block_map(check_mod, EC.module, 0, [
        (bundle.j, "{}", H, 1), (one_s, S, "b.s.{}", 1)])
    l_map = _block_map(EC.module, check_mod, 0, [
        (bundle.i, B, "{}", 1), (one_o, "h.o.{}", O, 1)])
    ibar = cone_inclusion(EC, bundle.bar, "b")
    jbar = cone_projection(EC, bundle.hat, "h")
    kk = _block_map(EC.module, EC.module, 1, [(one_u, "b.u.{}", "h.u.{}", -1)])
    kibar = kk @ ibar

    # each defect is formed when judged, and freed after
    checks = [_law(tag, defect(), prime) for tag, defect in (
        ("eq:1", lambda: (l_map @ k_map) - GradedMap.identity(check_mod)),
        ("eq:2", lambda: (k_map @ l_map) - GradedMap.identity(EC.module)
         - (EC.d @ kk) - (kk @ EC.d)),
        ("eq:3", lambda: bundle.j - (jbar @ k_map)),
        ("eq:4", lambda: (k_map @ bundle.i) - ibar
         - (EC.d @ kibar) - (kibar @ bundle.bar.d)),
        ("eq:S2:rho1", lambda: (bundle.k_j @ pi_o) - (pi_u @ bundle.k_p)),
        ("eq:S2:rho2", lambda: (pi_s @ bundle.k_i) + (bundle.k_p @ pi_u)),
        ("eq:S2:rho3", lambda: (bundle.hat.u_action @ pi_u)
         - (pi_u @ bundle.bar.u_action)
         - (bundle.k_j @ bundle.i) + (bundle.j @ bundle.k_i)))]

    ck_j = _block_map(check_mod, EC.module, -1, [(bundle.k_j, "{}", H, -1)])
    ck_i = _block_map(EC.module, check_mod, -1, [(bundle.k_i, B, "{}", 1)])
    pm_k = PMorphism(bundle.check, EC, k_map, ck_j)
    pm_l = PMorphism(EC, bundle.check, l_map, ck_i)
    u_cone = _law("eq:U-cone", commutator(EC.d, EC.u_action), prime)
    k_law, l_law = pm_k.law("eq:SU-k"), pm_l.law("eq:SU-l")
    checks += [u_cone, k_law, l_law]
    doubled_tags = ("eq:S1", "eq:1:SU", "eq:S2", "eq:S2:line2")
    # the doubled lifts need the cone's U law and p-morphisms k and l, and
    # fail naming the first that fails; _su_map verifies i and j too, and
    # its NotAPMorphism is a ChainError, whose text they carry
    unmet = next((f"needs {c.tag}" for c in (u_cone, k_law, l_law)
                  if not c.ok), None)
    if unmet is None:
        try:
            (su_hat, su_bar, su_check, su_i, su_j, _, sue, su_ibar,
             su_jbar) = _doubled_pieces(bundle, EC)
            su_k = _su_map(pm_k, su_check, sue)
            su_l = _su_map(pm_l, sue, su_check)
        except ChainError as exc:
            unmet = str(exc)
    if unmet is not None:
        return CheckReport(tuple(checks) + tuple(
            Check(tag, False, unmet) for tag in doubled_tags))
    ks = _doubled(kk, None, sue.module, sue.module)
    ws = _doubled(kibar, None, su_bar.module, sue.module)
    checks += [_law(tag, defect(), prime) for tag, defect in zip(doubled_tags, (
        lambda: su_j - (su_jbar @ su_k),
        lambda: (su_l @ su_k) - GradedMap.identity(su_check.module),
        lambda: (su_k @ su_l) - GradedMap.identity(sue.module)
        - (sue.d @ ks) - (ks @ sue.d),
        lambda: (su_k @ su_i) - su_ibar - (sue.d @ ws) - (ws @ su_bar.d)))]
    return CheckReport(tuple(checks))


# ---------------------------------------------------------------------------
# Tower models
# ---------------------------------------------------------------------------

class TowerParams(NamedTuple):
    """A finite u-tower over a base complex: exponents -n..n, the stable
    piece holding exponents <= 0."""

    base: ChainComplex
    n: int


def tower_model(params: TowerParams) -> BalancedComponents:
    """Balanced components of the truncated tower base (x) K[x]/(x^{2n+1}).

    Generators g.x{m} for -n <= m <= n at degree deg(g) - 2m (raw degrees
    store the +1 shift on the unstable side so the assembled bar grading
    comes out right); differential acts levelwise, the reducible
    U-endomorphism is the x-shift, truncated at the top; there are no
    irreducible generators.
    """
    base = params.base
    N = params.n
    if N < 2:
        raise ChainError("tower depth must be at least 2")
    if base.module.modulus:
        raise ModulusUnsupported("tower bases need genuine Z-gradings")
    _require_valid(base, "tower base fails law")

    # one renamed copy of the base per level, stable levels m <= 0 first
    stable, unstable = range(-N, 1), range(1, N + 1)
    s_levels = [(base.module, f"{{}}.x{m}", -2 * m) for m in stable]
    u_levels = [(base.module, f"{{}}.x{m}", 1 - 2 * m) for m in unstable]
    c_s, c_u = _renamed_module(s_levels), _renamed_module(u_levels)
    # the x-shift takes level m to level m + 1; the blocks are split by
    # the pieces of the two levels, and none leaves the top level
    shift = GradedMap.identity(base.module)

    def ubar(src_levels, tgt_levels, src, tgt, degree):
        return _block_map(src, tgt, degree, [
            (shift, f"{{}}.x{m}", f"{{}}.x{m + 1}", 1)
            for m in src_levels if m + 1 in tgt_levels])

    return BalancedComponents.zeros(
        GradedModule([]), c_s, c_u, p=base.p,
        dbar_ss=_block_map(c_s, c_s, -1, [(base.d, L, L, 1)
                                          for _, L, _ in s_levels]),
        dbar_uu=_block_map(c_u, c_u, -1, [(base.d, L, L, 1)
                                          for _, L, _ in u_levels]),
        ubar_ss=ubar(stable, stable, c_s, c_s, -2),
        ubar_su=ubar(stable, unstable, c_s, c_u, -1),
        ubar_uu=ubar(unstable, unstable, c_u, c_u, -2),
    )


def point_tower(n: int) -> Tuple[HomologyTable, Tuple[Check, Check]]:
    """The doubled bar homology of the depth-n tower over a point, with its
    two Checks: it vanishes strictly between -2n and 2n + 1
    (``tower-vanishing``), and those two degrees are its support
    (``tower-edges``)."""
    pt = GradedModule((("a", 0),))
    base = ChainComplex(pt, GradedMap.zero(pt, pt, -1),
                        u_action=GradedMap.zero(pt, pt, -2))
    H = homology(s_u(assemble(tower_model(TowerParams(base=base, n=n))).bar))
    lo, hi = -2 * n, 2 * n + 1
    return H, (Check("tower-vanishing",
                     all(H[j].is_trivial() for j in range(lo + 1, hi))),
               Check("tower-edges", H.degrees() == [lo, hi]))


# ---------------------------------------------------------------------------
# Four flavors of a single U-complex
# ---------------------------------------------------------------------------

class FourFlavors(NamedTuple):
    """Homology of the four flavor slices of the doubled complex, with the
    two connecting long-exact-sequence certificates."""

    window: Window
    tables: Dict[str, HomologyTable]
    sequences: FundamentalSequences

    @property
    def hat_table(self) -> HomologyTable:
        return self.tables["hat"]

    @property
    def ok(self) -> bool:
        return self.sequences.ok


def four_flavors(C: ChainComplex, window=None) -> FourFlavors:
    """Slice s_u(C) into the four flavors and certify the two fundamental
    long exact sequences tying them together."""
    S = s_u(C)
    fs = fundamental_sequences(S, window)
    tables = {tag: homology(cx) for tag, cx in fs.complexes.items()}
    return FourFlavors(fs.window, tables, fs)


# ---------------------------------------------------------------------------
# The comparison ladder
# ---------------------------------------------------------------------------

class LadderReport(NamedTuple):
    """The comparison ladder's Checks, in the order a report prints them:
    the cone's long exact sequence and its connecting map against p, the j
    isomorphism where the bar homology vanishes, the first fundamental
    sequence of each doubled complex (the top row for hat, side rows for
    bar and check), the minus-flavor bottom row, and one Check per square
    name.  ``bar_vanishing`` and ``bar_u_iso`` (whether u acts invertibly
    on the bar homology inside the window; None on a narrow window) are
    informational, since the latter can only hold for tower-like bundles."""

    window: Window
    checks: Tuple[Check, ...]
    bar_vanishing: bool
    bar_u_iso: Optional[bool]

    @property
    def ok(self) -> bool:
        return CheckReport(self.checks).ok


def _chase(cols: IntMatrix, j: int,
           arrows: Sequence[_HomologyArrow]) -> IntMatrix:
    """Push coordinate columns at degree j along a path of arrows."""
    for arrow in arrows:
        cols = arrow.matrix(j) @ cols
        j += arrow.degree
    return cols


def _square_commutes(src_cx: ChainComplex, j: int,
                     lhs: Sequence[_HomologyArrow],
                     rhs: Sequence[_HomologyArrow],
                     tgt_cx: ChainComplex, tgt_deg: int,
                     sign: int = 1) -> bool:
    """lhs == sign * rhs on every homology class of the source degree,
    chasing all canonical generators at once; true with nothing chased
    where the source group is trivial, false where a class cannot be
    chased (ChainError)."""
    try:
        n = _presentation(src_cx, j).rank_coords()
        if not n:
            return True
        e = IntMatrix.identity(n)
        return _presentation(tgt_cx, tgt_deg).columns_are_zero(
            _chase(e, j, lhs) + _chase(e, j, rhs).scale(-sign))
    except ChainError:
        return False


def ladder_check(bundle: FlavorBundle, window=None) -> LadderReport:
    """Certify the cone long exact sequence, the vanishing-driven j
    isomorphism, and the comparison ladder at safe degrees.

    The cone of p is the short exact sequence bar -> cone -> hat of
    ``circle._sequence``, checked at every degree of the window, whose
    snake map is p (``eq:induced-KM1:delta``).  The ladder's top row is the
    splice long exact sequence of the doubled hat complex, its bottom row
    the minus-flavor p/i/j column, and the squares are the naturality
    identities between the splice arrows of the three doubled complexes
    and the sliced images of p, i, j: at chain level for inclusion and
    projection, on homology classes (with the degree sign) for the
    connecting maps.  A node or square is checked only where every slice
    it involves is window-safe, a node's degrees read off its arrows'.  Of
    each doubled complex only the first fundamental sequence is built.
    """
    prime = bundle.hat.p
    (su_hat, su_bar, su_check, su_i, su_j, su_p, sue, su_ibar,
     su_jbar) = _doubled_pieces(bundle)

    win = _resolve_window(sue.module.degrees(), window)

    # the cone is not sliced, so every degree is safe
    cone_seq, cone_les, delta = _sequence(
        "eq:induced-KM1", (su_bar, sue, su_hat), su_ibar, su_jbar,
        ("cone", "hat", "bar"), win, range(win.lo, win.hi + 1), None)
    checks = [cone_les._replace(ok=cone_seq.exact and cone_les.ok),
              _law("eq:induced-KM1:delta", delta.f - su_p, prime)]

    h_bar = homology(su_bar)
    bar_vanishing = all(h_bar[j].is_trivial()
                        for j in range(win.lo, win.hi + 1))
    # the long exact sequence pins j down only where both the degree and the
    # one below it sit inside the vanishing range
    if bar_vanishing and win.lo + 1 <= win.hi:
        checks.append(Check("eq:KM:j-iso", induced_on_homology(
            su_j, su_check, su_hat,
            (win.lo + 1, win.hi)).iso_on((win.lo + 1, win.hi))))

    # the first fundamental sequences read only the minus, infinity and
    # plus slices; the hat slice is left to the second, never built here
    fs = {key: _fundamental(_e_y_slices(S, FLAVOR_TAGS[:3], win),
                            _U_LAYOUT, [dg for _, dg in S.module.generators],
                            win)
          for key, S in (("hat", su_hat), ("bar", su_bar),
                         ("check", su_check))}
    checks += [fs[key].checks[0]._replace(tag=f"eq:E-sq1:{key}")
               for key in fs]

    legs = (("p", su_p, "hat", "bar"),
            ("i", su_i, "bar", "check"),
            ("j", su_j, "check", "hat"))
    # the sliced legs, and the arrows on homology the connecting squares
    # read, of the minus and plus legs
    sliced, arrows = {}, {}
    for tag, f, a, b in legs:
        for fl in FLAVOR_TAGS[:3]:
            src, tgt = fs[a].complexes[fl], fs[b].complexes[fl]
            g = sliced[(tag, fl)] = _slotwise(f, src, tgt)
            if fl != "infinity":
                arrows[(tag, fl)] = _HomologyArrow(g, src, tgt)

    # the inclusions and projections are name identities: the infinity leg
    # read out of minus is the minus leg, and read into plus the plus leg
    squares = []
    for tag, f, a, b in legs:
        ca, cb = fs[a].complexes, fs[b].complexes
        for name, fl, src, tgt in (
                ("splice", "minus", ca["minus"], cb["infinity"]),
                ("slice", "plus", ca["infinity"], cb["plus"])):
            s, t = src.module, tgt.module
            squares.append(_law(f"eq:KM:{tag}:{name}", (
                _restricted(sliced[(tag, "infinity")], s, t)
                - _restricted(sliced[(tag, fl)], s, t)), prime))

    # each connecting square with a safe degree, with its first failing
    # degree as witness
    for tag, f, a, b in legs:
        d = f.degree
        safe = [j for j in range(win.lo, win.hi + 1) if all(
            k in s["plus"] and k in s["infinity"] and k - 1 in s["minus"]
            for k, s in ((j, fs[a].safe), (j + d, fs[b].safe)))]
        failing = next((j for j in safe if not _square_commutes(
            fs[a].complexes["plus"], j,
            [arrows[(tag, "plus")], fs[b].delta1],
            [fs[a].delta1, arrows[(tag, "minus")]],
            fs[b].complexes["minus"], j + d - 1, sign=-1 if d % 2 else 1)),
            None)
        if safe:
            squares.append(Check(f"eq:KM:{tag}:connecting", failing is None,
                                 failing))

    b_p, b_i, b_j = (arrows[(tag, "minus")] for tag in "pij")
    checks.append(_les_check("eq:KM-bottom", win, (
        ("bar-minus", b_p, b_i), ("check-minus", b_i, b_j),
        ("hat-minus", b_j, b_p)),
        {fs[k].complexes["minus"]: fs[k].safe["minus"] for k in fs}))
    checks += squares

    bar_u = getattr(bundle.bar, "u_action", None)
    bar_u_iso: Optional[bool] = None
    if bar_u is not None and win.lo + 2 <= win.hi:
        bar_u_iso = induced_on_homology(
            bar_u, bundle.bar, bundle.bar,
            (win.lo + 2, win.hi)).iso_on((win.lo + 2, win.hi))

    return LadderReport(win, tuple(checks), bar_vanishing, bar_u_iso)
