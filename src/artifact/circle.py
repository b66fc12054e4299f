"""Circle-action functors between U-module and Y-module chain complexes.

``s_u`` doubles a complex carrying a degree -2 U-action into one carrying a
degree +1 square-zero Y-action; ``e_y`` goes back by tensoring with one of
four standard u-power ranges (minus: n >= 1, infinity: all n, plus: n <= 0,
hat: n = 0 only), sliced to a degree window using deg(g.u{n}) = deg(g) - 2n
so every slice is finite.  Each direction of the duality is certified by a
map whose degree is the shift (``_certified``): ``koszul_a`` maps the
first-page model into the flavor complex, and ``koszul_b`` maps C into
s_u(e_y(C, minus)) by z -> (Yz).u1 + z.u1.y.

One engine serves these flavors and the Laurent-filtered flavors of
``connsum``.  ``_expand`` expands a Laurent differential once for all the
flavors a caller asks for and slices it per flavor (``e_y`` feeds it d at
exponent 0 and Y at exponent 1, the form d + Y.u).  Slices of one
expansion share generator names, so maps between them are read off by
name (``_restricted``), with no product formed.  The two callers differ
only in a ``_Layout``: the range table (u-range as above; Laurent: minus
k >= 0, infinity all k, plus k <= -1, hat k = 0), the name suffix (``.u`` /
``.U``) and the tags of the fundamental sequences' Checks.  The hat offset
o = 2 * (bottom exponent of minus - hat exponent), the degree of the
projection of minus onto hat, is 2 for the u-range, whose hat is the top
line of plus, and 0 for the Laurent range, whose hat is the bottom line of
minus.

One certificate, ``_sequence``, serves both fundamental sequences
(``_fundamental``) and the cone of p in ``flavors.ladder_check``: its maps
are 0/1 partial bijections of generator names, so exactness and the
connecting map retraction . d . section are read off by name.

Conventions match chain.py: differentials have degree -1; a degree-d chain
map satisfies f.d - (-1)^d d.f = 0.  On a doubled complex the blocks over
(g, g.y) are [[d, 0], [U, -d]], the Y-action is g -> g.y, and a p-morphism
(phi, K) becomes [[phi, 0], [K, (-1)^{deg phi} phi]].

Window-safe degrees: j is safe when every generator the *untruncated*
flavor complex would have in degrees {j-1, j, j+1} is retained by the
slice.  Truncation is by generator deletion, so artifacts are confined to
unsafe degrees and all assertions are made at safe ones; a node of a long
exact sequence is checked where its arrows' degrees land on safe degrees.
"""

from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .chain import (
    ChainComplex,
    ChainError,
    Check,
    CheckReport,
    GradedMap,
    GradedModule,
    ModulusUnsupported,
    PMorphism,
    _Checked,
    _HomologyArrow,
    _apply,
    _block_map,
    _defect,
    _flags,
    _law,
    _renamed_module,
    _require_valid,
    exactness_pair,
    homology,
    is_chain_map,
)
from .exactlin import AbelianGroup


class MissingUAction(ChainError):
    pass


class MissingYAction(ChainError):
    pass


class NotAPMorphism(ChainError):
    pass


# ---------------------------------------------------------------------------
# Flavors, exponent ranges and windows
# ---------------------------------------------------------------------------

FLAVOR_TAGS = ("minus", "infinity", "plus", "hat")

# (lowest, highest) exponent per flavor; None is unbounded
ExponentRange = Tuple[Optional[int], Optional[int]]


def _in_range(exponents: ExponentRange, n: int) -> bool:
    lo, hi = exponents
    return (lo is None or n >= lo) and (hi is None or n <= hi)


class _Layout(NamedTuple):
    """One family of flavor expansions: the exponent range of each flavor,
    the generator-name suffix, and the tags a report prints for the two
    fundamental sequences."""

    ranges: Dict[str, ExponentRange]
    suffix: str
    tags: Tuple[str, str]

    @property
    def hat_offset(self) -> int:
        """Degree of the projection of minus onto hat."""
        return 2 * (self.ranges["minus"][0] - self.ranges["hat"][0])


# powers of u: hat is the top line of plus
_U_LAYOUT = _Layout(
    {"minus": (1, None), "infinity": (None, None), "plus": (None, 0),
     "hat": (0, 0)},
    ".u", ("eq:E-sq1", "eq:E-sq2"))

# Laurent exponents of a filtered complex: hat is the bottom line of minus
_LAURENT_LAYOUT = _Layout(
    {"minus": (0, None), "infinity": (None, None), "plus": (None, -1),
     "hat": (0, 0)},
    ".U", ("eq:fund-short:1", "eq:fund-short:2"))


class Flavor(_Checked, NamedTuple("Flavor", [("tag", str)])):
    """One of the four u-power ranges: minus (n >= 1), infinity (all n),
    plus (n <= 0, residues mod the positive powers), hat (n = 0 only)."""

    __slots__ = ()

    def _check(self):
        if self.tag not in FLAVOR_TAGS:
            raise ChainError(f"unknown flavor {self.tag!r}")

    def __str__(self) -> str:
        return self.tag


MINUS = Flavor("minus")
INFINITY = Flavor("infinity")
PLUS = Flavor("plus")
HAT = Flavor("hat")
ALL_FLAVORS = (MINUS, INFINITY, PLUS, HAT)


class Window(_Checked, NamedTuple("Window", [("lo", int), ("hi", int)])):
    """Inclusive degree bounds used to slice infinite-rank flavor complexes."""

    __slots__ = ()

    def _check(self):
        if self.lo > self.hi:
            raise ChainError(f"window {self.lo}..{self.hi} is empty")


def _resolve_window(degrees: Sequence[int], window) -> Window:
    """The given window, or else the span of the generator degrees widened
    by two on each side (-2..2 when there are none)."""
    if window is None:
        if not degrees:
            return Window(-2, 2)
        return Window(min(degrees) - 2, max(degrees) + 2)
    if isinstance(window, Window):
        return window
    lo, hi = window
    return Window(lo, hi)


def _window_safe(gen_degrees: Sequence[int], exponents: ExponentRange,
                 win: Window, reach: int = 1) -> List[int]:
    """Degrees j of the window such that every degree in j-reach..j+1 where
    the untruncated expansion (g.{n} in degree deg(g) - 2n for n in the
    exponent range) has a generator lies inside the window."""
    def occupied(t: int) -> bool:
        return any((dg - t) % 2 == 0 and _in_range(exponents, (dg - t) // 2)
                   for dg in gen_degrees)

    # the degrees next to the window that some j-reach..j+1 can reach
    lost = [t for t in (*range(win.lo - reach, win.lo), win.hi + 1)
            if occupied(t)]
    return [j for j in range(win.lo, win.hi + 1)
            if not any(j - reach <= t <= j + 1 for t in lost)]


def safe_degrees(C: ChainComplex, flavor: Flavor, window) -> List[int]:
    """Degrees of e_y(C, flavor, window) untouched by the slicing."""
    win = _resolve_window(C.module.degrees(), window)
    return _window_safe([d for _, d in C.module.generators],
                        _U_LAYOUT.ranges[flavor.tag], win)


# ---------------------------------------------------------------------------
# S_U: from U-modules to Y-modules
# ---------------------------------------------------------------------------

def _doubled(f: GradedMap, k: Optional[GradedMap], source: GradedModule,
             target: GradedModule) -> GradedMap:
    """The blocks [[f, 0], [k, (-1)^{deg f} f]] over (g, g.y) between doubled
    modules; k may be None."""
    sign = -1 if f.degree % 2 else 1
    return _block_map(source, target, f.degree, [
        (f, "{}", "{}", 1), (f, "{}.y", "{}.y", sign), (k, "{}", "{}.y", 1)])


def s_u(C: ChainComplex) -> ChainComplex:
    """Double C along a polynomial variable y: generators g and g.y with
    differential blocks [[d, 0], [U, -d]] and Y = multiplication by y."""
    if C.module.modulus:
        raise ModulusUnsupported("s_u needs a genuine Z-grading")
    if C.u_action is None:
        raise MissingUAction("s_u needs a U-action")
    module = _renamed_module([(C.module, "{}", 0), (C.module, "{}.y", 1)])
    d = _doubled(C.d, C.u_action, module, module)
    y = GradedMap(module, module, 1, {(g, f"{g}.y"): 1 for g in C.module.names()})
    out = ChainComplex(module, d, y_action=y, p=C.p)
    _require_valid(out, "s_u output fails")
    return out


def s_u_map(P: PMorphism) -> GradedMap:
    """The doubled map [[phi, 0], [K, (-1)^{deg phi} phi]] between s_u
    complexes; a chain map commuting with the Y-actions."""
    return _su_map(P, s_u(P.source), s_u(P.target))


def _su_map(P: PMorphism, su_source: ChainComplex,
            su_target: ChainComplex) -> GradedMap:
    """``s_u_map(P)``, given s_u(P.source) and s_u(P.target) already built."""
    if not P.verify():
        raise NotAPMorphism("s_u_map needs a verified p-morphism")
    return _doubled(P.phi, P.k_phi, su_source.module, su_target.module)


# ---------------------------------------------------------------------------
# The expansion engine and E_Y in the four flavors
# ---------------------------------------------------------------------------

def _exponents(dg: int, exponents: ExponentRange, win: Window) -> List[int]:
    # lo <= dg - 2n <= hi  <=>  ceil((dg - hi)/2) <= n <= floor((dg - lo)/2)
    lo_n = -((win.hi - dg) // 2)
    hi_n = (dg - win.lo) // 2
    return [n for n in range(lo_n, hi_n + 1) if _in_range(exponents, n)]


def _expand(generators: Sequence[Tuple[str, int]],
            terms: Iterable[Tuple[str, str, int, int]], layout: _Layout,
            tags: Sequence[str], win: Window, p: int
            ) -> Dict[str, ChainComplex]:
    """Expand a Laurent differential once, over the exponent range of the
    one flavor in ``tags`` or over all exponents for several, and slice the
    expansion into one complex per flavor of ``tags``.

    ``terms`` lists (src, dst, exponent, coeff).  Generator g and exponent n
    give g{suffix}{n} in degree deg(g) - 2n, a term shifts the exponent by
    its own, and terms leaving the range or the window drop (for plus this
    is the quotient differential).  The U-action is the exponent shift.
    A slice is its flavor's in-range generators in module order with the d
    and U entries between them, so the slices of one expansion share
    generator names."""
    span = layout.ranges[tags[0]] if len(tags) == 1 else (None, None)
    out: Dict[str, List[Tuple[str, int, int]]] = {}
    for src, dst, n, c in terms:
        out.setdefault(src, []).append((dst, n, c))
    # (generator, exponent) -> name, for every generator the slice keeps
    names = {(g, n): f"{g}{layout.suffix}{n}" for g, dg in generators
             for n in _exponents(dg, span, win)}
    degree = dict(generators)
    ent: Dict[Tuple[str, str], int] = {}
    uent: Dict[Tuple[str, str], int] = {}
    for (g, n), sname in names.items():
        for dst, k, c in out.get(g, ()):
            tname = names.get((dst, n + k))
            if tname is not None:
                ent[(sname, tname)] = ent.get((sname, tname), 0) + c
        up = names.get((g, n + 1))
        if up is not None:
            uent[(sname, up)] = 1
    slices = {}
    for tag in tags:
        lo, hi = layout.ranges[tag]
        # names are distinct: g is what precedes the last suffix
        module = GradedModule._trusted([
            (name, degree[g] - 2 * n) for (g, n), name in names.items()
            if (lo is None or n >= lo) and (hi is None or n <= hi)])
        own = module._index
        # each term keeps the degree of the homogeneous map it came from
        d, u = (GradedMap._trusted(module, module, deg, {
            k: v for k, v in e.items() if v and k[0] in own and k[1] in own})
                for deg, e in ((-1, ent), (-2, uent)))
        slices[tag] = ChainComplex(module, d, u_action=u, p=p)
    return slices


def e_y(C: ChainComplex, flavor: Flavor, window=None) -> ChainComplex:
    """Flavor complex on generators g.u{n}, differential d + Y.u (the
    u-multiplication truncates out of the exponent range), u-action =
    exponent shift exposed as the output's U."""
    return _e_y_slices(C, (flavor.tag,), window)[flavor.tag]


def _e_y_slices(C: ChainComplex, tags: Sequence[str],
                window) -> Dict[str, ChainComplex]:
    """``e_y(C, Flavor(tag), window)`` for each tag, from one expansion."""
    if C.module.modulus:
        raise ModulusUnsupported("e_y needs a genuine Z-grading")
    if C.y_action is None:
        raise MissingYAction("e_y needs a Y-action")
    win = _resolve_window(C.module.degrees(), window)
    terms = [(s, t, 0, v) for (s, t), v in C.d.entries.items()]
    terms += [(s, t, 1, v) for (s, t), v in C.y_action.entries.items()]
    return _expand(C.module.generators, terms, _U_LAYOUT, tags, win, C.p)


def _slotwise(f: GradedMap, source: ChainComplex,
              target: ChainComplex) -> GradedMap:
    """f tensored with the identity of the u-range between two slices:
    g.u{n} -> f(g).u{n}, dropping images outside the target slice.  Built
    unchecked: both slices shift g and f(g) by the same 2n degrees."""
    tindex = target.module._index
    rows = f._rows()
    ent = {}
    for sname, _ in source.module.generators:
        g, n = sname.rsplit(".u", 1)
        for t, v in rows.get(g, {}).items():
            tname = f"{t}.u{n}"
            if tname in tindex:
                ent[(sname, tname)] = v
    return GradedMap._trusted(source.module, target.module, f.degree, ent)


def e_y_map(f: GradedMap, source: ChainComplex, target: ChainComplex,
            flavor: Flavor, window=None) -> GradedMap:
    """f tensored with the identity of the u-range: g.u{n} -> f(g).u{n} on
    the window slices.  f must be a chain map commuting with Y up to the
    usual degree sign."""
    if not is_chain_map(f, source, target):
        raise ChainError("e_y_map needs a chain map")
    if not _defect(f, source.y_action, target.y_action).is_zero_mod(source.p):
        raise ChainError("e_y_map needs Y-equivariance")
    return _slotwise(f, e_y(source, flavor, window),
                     e_y(target, flavor, window))


# ---------------------------------------------------------------------------
# Short exact sequences, their long exact sequences, and the fundamental pair
# ---------------------------------------------------------------------------

class ShortExactSequence(NamedTuple):
    left: ChainComplex
    middle: ChainComplex
    right: ChainComplex
    inject: GradedMap
    project: GradedMap
    checked_degrees: Tuple[int, ...]
    exact: bool


class FundamentalSequences(NamedTuple):
    """The flavor expansions of one complex on a window, with both
    fundamental short exact sequences, the Checks of their long exact
    sequences and their connecting maps, each triple from ``_sequence``:
    ``delta1`` is plus -> minus of degree -1, ``delta2`` hat -> minus of
    degree 1 - hat offset.  ``safe`` holds each slice's window-safe
    degrees by flavor tag.  Without a hat slice ``seq2``, ``les2`` and
    ``delta2`` are None."""

    window: Window
    complexes: Dict[str, ChainComplex]
    seq1: ShortExactSequence
    les1: Check
    delta1: _HomologyArrow
    safe: Dict[str, Set[int]]
    seq2: Optional[ShortExactSequence]
    les2: Optional[Check]
    delta2: Optional[_HomologyArrow]

    @property
    def checks(self) -> Tuple[Check, ...]:
        """One Check per sequence built, as a report prints it: exact at the
        chain level and its long exact sequence certified, with its witness."""
        return tuple(les._replace(ok=seq.exact and les.ok) for seq, les in
                     ((self.seq1, self.les1), (self.seq2, self.les2))
                     if seq is not None)

    @property
    def ok(self) -> bool:
        return CheckReport(self.checks).ok


def _name_identity(src: GradedModule, tgt: GradedModule) -> GradedMap:
    """Each generator of src to the generator of tgt of its name, if any."""
    return GradedMap._trusted(src, tgt, 0, {
        (n, n): 1 for n, _ in src.generators if n in tgt._index})


def _restricted(f: GradedMap, source: GradedModule,
                target: GradedModule) -> GradedMap:
    """The entries of f from generators of source to those of target: f
    composed with name identities, such as the inclusion of minus in
    infinity or the projection onto plus, with no product formed."""
    s, t = source._index, target._index
    return GradedMap._trusted(source, target, f.degree, {
        k: v for k, v in f.entries.items() if k[0] in s and k[1] in t})


def _name_map(f: GradedMap) -> Dict[str, str]:
    """f as a partial bijection of generator names; ChainError unless every
    entry is 1 and no generator has two images or shares one."""
    out = {s: t for (s, t), v in f.entries.items() if v == 1}
    if len(out) != len(f.entries) or len(set(out.values())) != len(out):
        raise ChainError("map is not a 0/1 partial bijection of generators")
    return out


def _ses_exact_at(inject: GradedMap, project: GradedMap, mid_degree: int,
                  names: Tuple[Dict[str, str], Dict[str, str]]) -> bool:
    """Module-level exactness of 0 -> A -> B -> C -> 0 at the middle degree
    for 0/1 partial bijections, from their ``_name_map``s (``names``, built
    once per sequence), over Z and F_p alike: every A-generator has an
    image, every C-generator is hit, and the image names are the
    B-generators that project does not map."""
    inj, proj = names
    b_gens = project.source.gens_in_degree(mid_degree)
    hit = {proj[b] for b in b_gens if b in proj}
    image = {inj.get(a) for a in
             inject.source.gens_in_degree(mid_degree - inject.degree)}
    c_gens = project.target.gens_in_degree(mid_degree + project.degree)
    return (None not in image and hit.issuperset(c_gens)
            and image == {b for b in b_gens if b not in proj})


def _snake(inject: GradedMap, project: GradedMap, d: GradedMap,
           names: Tuple[Dict[str, str], Dict[str, str]]) -> GradedMap:
    """The connecting map C -> A of 0 -> A -> B -> C -> 0, retraction . d .
    section through the canonical splittings of 0/1 partial bijections:
    the entries of d of B from generators project maps to generators
    inject hits, renamed, with no product formed."""
    proj, back = names[1], {b: a for a, b in names[0].items()}
    degree = d.degree - project.degree - inject.degree
    return GradedMap._trusted(project.target, inject.source, degree, {
        (proj[s], back[t]): v for (s, t), v in d.entries.items()
        if s in proj and t in back})


def _les_check(tag: str, win: Window, rows,
               safe: Optional[Dict[ChainComplex, Set[int]]]) -> Check:
    """Homology-level exactness at the nodes of a long exact sequence, degree
    by degree.  ``rows`` lists (location, incoming arrow, outgoing arrow);
    the node at degree j is checked where j - deg(incoming) is safe for
    the incoming arrow's source, j for the middle complex and j +
    deg(outgoing) for the outgoing arrow's target, by ``safe``, keyed by
    complex (None: every degree is safe).  The witness is the first
    inexact (location, degree); with no node checked the sequence has
    certified nothing, and the Check fails with no witness."""
    checked, witness = False, None
    for j in range(win.lo, win.hi + 1):
        for location, incoming, outgoing in rows:
            if safe is None or (j - incoming.degree in safe[incoming.source]
                                and j in safe[incoming.target]
                                and j + outgoing.degree
                                in safe[outgoing.target]):
                checked = True
                if (exactness_pair(incoming, outgoing, j) != (True, True)
                        and witness is None):
                    witness = (location, j)
    return Check(tag, checked and witness is None, witness)


def _chain_map_inside(f: GradedMap, source: ChainComplex,
                      target: ChainComplex, win: Window) -> GradedMap:
    """The chain-map defect of f on the source generators whose whole square
    lies in the window: the slices cut d off below the window, and a map of
    positive degree pushes the top of the window out of it.  For a degree-0
    map between slices of one window this is the whole defect."""
    defect = _defect(f, source.d, target.d)
    deg = source.module.degree_of
    return GradedMap._trusted(defect.source, defect.target, defect.degree, {
        k: v for k, v in defect.entries.items()
        if win.lo < deg(k[0]) and deg(k[0]) + f.degree <= win.hi})


def _sequence(tag: str, complexes: Tuple[ChainComplex, ...],
              inject: GradedMap, project: GradedMap,
              locations: Tuple[str, ...], win: Window, checked: Iterable[int],
              safe: Optional[Dict[ChainComplex, Set[int]]]
              ) -> Tuple[ShortExactSequence, Check, _HomologyArrow]:
    """0 -> A -> B -> C -> 0 of ``complexes`` by 0/1 partial bijections,
    exact when both maps are chain maps inside the window and it is exact
    at module level at the ``checked`` degrees; the Check of its long exact
    sequence at B, C and A (named by ``locations``); its connecting map."""
    A, B, C = complexes
    names = (_name_map(inject), _name_map(project))
    exact = (_chain_map_inside(inject, A, B, win).is_zero_mod(A.p)
             and _chain_map_inside(project, B, C, win).is_zero_mod(A.p)
             and all(_ses_exact_at(inject, project, j, names)
                     for j in checked))
    into, onto = _HomologyArrow(inject, A, B), _HomologyArrow(project, B, C)
    delta = _HomologyArrow(_snake(inject, project, B.d, names), C, A)
    at_b, at_c, at_a = locations
    les = _les_check(tag, win, ((at_b, into, onto), (at_c, onto, delta),
                                (at_a, delta, into)), safe)
    return (ShortExactSequence(A, B, C, inject, project, tuple(checked),
                               exact), les, delta)


def _fundamental(complexes: Dict[str, ChainComplex], layout: _Layout,
                 gen_degrees: Sequence[int], win: Window
                 ) -> FundamentalSequences:
    """Both fundamental sequences of the flavor slices of one expansion; the
    second only when ``complexes`` has a hat slice.  A generator keeps its
    name and degree in every slice, so the first sequence's maps are name
    identities, and it is exact at module level at every sliced degree;
    u runs off the top of the slice, so the second stops two short of it."""
    minus, inf, plus = (complexes[t] for t in FLAVOR_TAGS[:3])
    safe = {tag: set(_window_safe(gen_degrees, layout.ranges[tag], win))
            for tag in complexes}
    by_complex = {complexes[tag]: degrees for tag, degrees in safe.items()}
    first = _sequence(
        layout.tags[0], (minus, inf, plus),
        _name_identity(minus.module, inf.module),
        _name_identity(inf.module, plus.module),
        ("infinity", "plus", "minus"), win, range(win.lo, win.hi + 1),
        by_complex)
    second = (None, None, None)
    if "hat" in complexes:
        # multiplication by u inside minus, quotient onto hat: the bottom
        # line of minus goes to the hat line, hat offset degrees up
        hat, sfx = complexes["hat"], layout.suffix
        lines = ((f"{h.rsplit(sfx, 1)[0]}{sfx}{layout.ranges['minus'][0]}", h)
                 for h in hat.module.names())
        second = _sequence(
            layout.tags[1], (minus, minus, hat), minus.u_action,
            GradedMap._trusted(minus.module, hat.module, layout.hat_offset, {
                k: 1 for k in lines if k[0] in minus.module}),
            ("minus@u-image", "hat", "minus@delta-image"), win,
            range(win.lo, win.hi - 1), by_complex)
    return FundamentalSequences(win, complexes, *first, safe, *second)


def fundamental_sequences(C: ChainComplex, window=None) -> FundamentalSequences:
    """The two short exact sequences of flavor complexes (minus into
    infinity onto plus; minus into minus by u onto hat), each exact at the
    chain level and certified on homology at window-safe degrees through
    its long exact sequence and snake connecting map."""
    win = _resolve_window(C.module.degrees(), window)
    return _fundamental(_e_y_slices(C, FLAVOR_TAGS, win), _U_LAYOUT,
                        [d for _, d in C.module.generators], win)


# ---------------------------------------------------------------------------
# The first-page models and both Koszul comparisons
# ---------------------------------------------------------------------------

def _plus_model_gens(C: ChainComplex, win: Window) -> Set[str]:
    """Generators whose iterated-U orbit dies before leaving the window,
    closed under reachability through d and U (so the restricted span is a
    genuine subcomplex).  For a finite complex fitting in the window this is
    everything; for a truncated translation tower it is only the edge band."""
    u_rows = C.u_action._rows().get
    kept: Set[str] = set()
    for g, dg in C.module.generators:
        vec = {g: 1}
        d = dg
        while vec and d >= win.lo:
            vec = _apply(vec, u_rows, C.p)
            d -= 2
        if not vec:
            kept.add(g)
    # close under reachability so d and U restrict
    frontier = list(kept)
    while frontier:
        g = frontier.pop()
        for f in (C.d, C.u_action):
            for t in f.image_of(g):
                if t not in kept:
                    kept.add(t)
                    frontier.append(t)
    return kept


def e1_page(C: ChainComplex, flavor: Flavor, window=None) -> ChainComplex:
    """The finite model carrying the first-page groups of the flavor
    comparison, with differential -d as stored.

      minus:    one copy of C on the u^1 line (g.u1 at degree-2), u acts by U;
      infinity: the zero complex (u is invertible there but nilpotent here);
      plus:     the u-torsion model: generators whose U-orbit dies inside the
                window, at their own degrees, u acting by -U;
      hat:      C itself with differential -d and u = 0.
    """
    if C.module.modulus:
        raise ModulusUnsupported("e1_page needs a genuine Z-grading")
    if C.u_action is None:
        raise MissingUAction("e1_page needs a U-action")
    win = _resolve_window(C.module.degrees(), window)
    if flavor.tag == "infinity":
        keep: Set[str] = set()
    elif flavor.tag == "plus":
        keep = _plus_model_gens(C, win)
    else:
        keep = set(C.module.names())
    n = 1 if flavor.tag == "minus" else 0
    u_sign = {"minus": 1, "plus": -1}.get(flavor.tag, 0)
    line = f"{{}}.u{n}"
    whole = _renamed_module([(C.module, line, -2 * n)])
    module = GradedModule([(f"{g}.u{n}", dg - 2 * n)
                           for g, dg in C.module.generators
                           if g in keep and win.lo <= dg - 2 * n <= win.hi])
    d, u = (_restricted(_block_map(whole, whole, f.degree,
                                   [(f, line, line, sign)]), module, module)
            for f, sign in ((C.d, -1), (C.u_action, u_sign)))
    return ChainComplex(module, d, u_action=u, p=C.p)


class ShiftReport(NamedTuple):
    """A computed homology against a model's, certified by the map that
    ``koszul_a``, ``koszul_b`` or ``case1_check`` names (``_certified``).
    ``shift`` = s is its degree from the model side to the computed side,
    None when no degree is compared; ``per_degree`` maps each compared
    model degree k where a side is nontrivial to (model[k], computed[k +
    s]).  ``check`` holds when the map is a chain map and an isomorphism at
    each such k; its witness: the law's generator pair, or the first bad k."""

    shift: Optional[int]
    per_degree: Dict[int, Tuple[AbelianGroup, AbelianGroup]]
    check: Check

    @property
    def matched(self) -> bool:
        return self.shift is not None

    @property
    def ok(self) -> bool:
        return self.check.ok

    witness_ok = ok


def _certified(tag: str, degree: int, ent: Dict[Tuple[str, str], int],
               source: ChainComplex, target: ChainComplex,
               trusted: Tuple[Iterable[int], Iterable[int]],
               win: Optional[Window] = None,
               from_model: bool = True) -> ShiftReport:
    """The certificate of a comparison by its map f: source -> target, the
    entries of ``ent`` between their generators, from the model to the
    computed side (or back, when not ``from_model``).  Model degree k is
    compared where k and k + s are trusted (``trusted``: model side, then
    computed side).  The law is judged inside ``win`` by
    ``_chain_map_inside`` when a side is cut to it, else by ``_law``."""
    f = GradedMap._trusted(source.module, target.module, degree, {
        k: v for k, v in ent.items()
        if k[0] in source.module and k[1] in target.module})
    model, computed = (source, target) if from_model else (target, source)
    s = degree if from_model else -degree
    on_computed = set(trusted[1])
    compared = [k for k in sorted(set(trusted[0])) if k + s in on_computed]
    if not compared:
        return ShiftReport(None, {}, Check(tag, False))
    Hm, Hc = homology(model), homology(computed)
    pairs = {k: (Hm[k], Hc[k + s]) for k in compared
             if not (Hm[k].is_trivial() and Hc[k + s].is_trivial())}
    check = _law(tag, _defect(f, source.d, target.d) if win is None
                 else _chain_map_inside(f, source, target, win), source.p)
    if check.ok:
        arrow = _HomologyArrow(f, source, target)
        bad = [k for k in pairs
               if _flags(arrow, k if from_model else k + s) != (True, True)]
        check = Check(tag, not bad, bad[0] if bad else None)
    return ShiftReport(s, pairs, check)


def koszul_a(C: ChainComplex, flavor: Flavor, window=None) -> ShiftReport:
    """Certify H(e_y(s_u(C), flavor)) against the first-page model's
    homology by the comparison map from the model, cut to the slices:

      minus:    g.u1 -> (-1)^{deg g} g.y.u1, of degree +1;
      plus:     g.u0 -> (-1)^{deg g} sum_{k >= 0} (-1)^k (U^k g).u{-k}, of
                degree 0 (a finite sum: U is nilpotent);
      hat:      the model is s_u(C) itself, and x -> x.u0, of degree 0;
      infinity: the zero map from the empty model."""
    SU = s_u(C)
    win = _resolve_window(SU.module.degrees(), window)
    if flavor.tag == "hat":
        model, trusted = SU, range(win.lo - 1, win.hi + 2)
        ent = {(x, f"{x}.u0"): 1 for x in SU.module.names()}
    else:
        model, ent = e1_page(C, flavor, win), {}
        # a model keeps each generator on its line (u1 for minus, u0 for
        # plus): the hat range; the infinity model has none
        line = {"minus": 1, "plus": 0}.get(flavor.tag)
        trusted = _window_safe([dg - 2 * line for _, dg in C.module.generators
                                if line is not None],
                               _U_LAYOUT.ranges["hat"], win)
        neg_u = C.u_action.scale(-1)._rows().get
        for g, dg in C.module.generators:
            vec, k = {g: -1 if dg % 2 else 1}, 0
            if flavor.tag == "minus":
                ent[(f"{g}.u1", f"{g}.y.u1")] = vec[g]
            while flavor.tag == "plus" and vec:
                ent.update(((f"{g}.u0", f"{h}.u{-k}"), v)
                           for h, v in vec.items())
                vec, k = _apply(vec, neg_u, C.p), k + 1
    return _certified(f"koszul-a:{flavor.tag}", int(flavor.tag == "minus"),
                      ent, model, e_y(SU, flavor, win),
                      (trusted, safe_degrees(SU, flavor, win)), win)


def koszul_b(C: ChainComplex, window=None) -> ShiftReport:
    """Certify H(s_u(e_y(C, minus))) against H(C) by the cycle-level
    witness W: z -> (Yz).u1 + z.u1.y, of degree -1 from C (Y-equivariant
    on the nose, as Y.Y = 0).  The default window hangs four degrees below
    the support (instead of the usual two) so the doubled minus-flavor
    complex is still safe one degree below every class of H(C)."""
    if C.y_action is None:
        raise MissingYAction("koszul_b needs a Y-action")
    if window is None:
        sw = C.module.support_window()
        window = Window(sw[0] - 4, sw[1] + 2) if sw else Window(-4, 2)
    win = _resolve_window(C.module.degrees(), window)
    # the witness over the whole line u1 and its y copy, cut to the slice
    whole = _renamed_module([(C.module, "{}.u1", -2),
                             (C.module, "{}.u1.y", -1)])
    W = _block_map(C.module, whole, -1, [
        (C.y_action, "{}", "{}.u1", 1),
        (_name_identity(C.module, C.module), "{}", "{}.u1.y", 1)])
    # the doubling reaches one degree further down
    return _certified("koszul-b", -1, W.entries, C, s_u(e_y(C, MINUS, win)),
                      (range(win.lo - 1, win.hi + 2),
                       _window_safe([d for _, d in C.module.generators],
                                    _U_LAYOUT.ranges["minus"], win,
                                    reach=2)))
