"""Closed-form per-term densities evaluated on scenario invariants.

This is the second, symbol-calculus-free route: every per-term density
reads only a ``ScenarioInvariants`` (with m and the scalar field), never a
symbol.  It is expressed through the pointwise invariants

    g(a,b),  a(|V|^2) = a . d|V|^2,  grad_a V (Jacobian applied to a),
    div V,   |V|^2,

combined via the spinor trace identities for 2-, 4- and 6-fold Clifford
products.  Two flavours live here:

* ``reference_term_densities`` -- the forms the trace identities actually
  produce; the symbol pipeline must reproduce them exactly.
* ``paper_term_densities`` / ``paper_group_densities`` /
  ``theorem_density`` -- the closed forms exactly as printed in the
  derivation under verification.  Three of them differ from the derived
  forms (one trace-contraction sign repeated in two brackets, and one
  dropped sphere-integral factor); the report carries both sides so the
  discrepancy is documented rather than silently absorbed.

All densities are rational multiples of the unit 2^m Vol(S^{2m-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .geometry import Scenario
from .spheres import sphere_volume


@dataclass(frozen=True)
class DensityValue:
    """A density in units of 2^m Vol(S^{2m-1})."""

    value: object  # GaussianRational (exact) or complex (float)
    m: int

    def unit_label(self) -> str:
        return f"2^{self.m}*Vol(S^{2 * self.m - 1})"

    def float_total(self) -> complex:
        """The density with the unit multiplied in."""
        return complex(self.value) * (2**self.m) * sphere_volume(2 * self.m)

    def __add__(self, other: "DensityValue") -> "DensityValue":
        if self.m != other.m:
            raise ValueError("cannot add densities for different m")
        return DensityValue(self.value + other.value, self.m)

    def __sub__(self, other: "DensityValue") -> "DensityValue":
        if self.m != other.m:
            raise ValueError("cannot subtract densities for different m")
        return DensityValue(self.value - other.value, self.m)

    def scale(self, s) -> "DensityValue":
        return DensityValue(self.value * s, self.m)


@dataclass
class ScenarioInvariants:
    """Every pairing the closed forms need, in the scenario's scalar field
    ``field``, with the scenario's m: all that the closed forms read."""

    m: int
    field: object
    w: object  # |V|^2
    g_uv: object
    g_uw: object
    g_vw: object
    g_uV: object
    g_vV: object
    g_wV: object
    du: object  # u(|V|^2)
    dv: object
    dw: object
    b_sum: object  # g(u, grad_V V) g(v,w) - g(v, grad_V V) g(u,w) + g(w, grad_V V) g(u,v)
    c_sum: object  # the six mixed grad terms
    div: object
    x_sum: object  # g(u,v) g(w,X) - g(u,w) g(v,X) + g(u,X) g(v,w)
    s1: object  # g(V,w) g(u,v)
    s2: object  # g(V,v) g(u,w)
    s3: object  # g(V,u) g(v,w)

    @property
    def t1(self):
        """g(u,v) w(|V|^2) - g(u,w) v(|V|^2) + g(v,w) u(|V|^2)."""
        return self.g_uv * self.dw - self.g_uw * self.dv + self.g_vw * self.du

    @property
    def a_sum(self):
        """-(1/2) of t1, the half-gradient combination."""
        return self.t1 * Fraction(-1, 2)

    @property
    def div_alt(self):
        """Alternating divergence combination s1 - s2 + s3."""
        return self.s1 - self.s2 + self.s3

    @property
    def div_all(self):
        """Same three products, all with plus signs."""
        return self.s1 + self.s2 + self.s3


def scenario_invariants(s: Scenario) -> ScenarioInvariants:
    V0 = s.V.value
    d = s.V.d_norm_sq()
    nv = s.V.directional(V0)  # grad_V V
    nu, nvv, nw = s.V.directional(s.u), s.V.directional(s.v), s.V.directional(s.w)
    u, v, w, X = s.u, s.v, s.w, s.X
    g_uv, g_uw, g_vw = u.dot(v), u.dot(w), v.dot(w)
    g_uV, g_vV, g_wV = u.dot(V0), v.dot(V0), w.dot(V0)
    b_sum = u.dot(nv) * g_vw - v.dot(nv) * g_uw + w.dot(nv) * g_uv
    c_sum = (
        -g_wV * u.dot(nvv)
        + g_wV * v.dot(nu)
        + g_vV * u.dot(nw)
        - g_vV * w.dot(nu)
        - g_uV * v.dot(nw)
        + g_uV * w.dot(nvv)
    )
    x_sum = g_uv * w.dot(X) - g_uw * v.dot(X) + u.dot(X) * g_vw
    return ScenarioInvariants(
        m=s.m,
        field=s.field,
        w=s.V.norm_sq(),
        g_uv=g_uv,
        g_uw=g_uw,
        g_vw=g_vw,
        g_uV=g_uV,
        g_vV=g_vV,
        g_wV=g_wV,
        du=u.dot(d),
        dv=v.dot(d),
        dw=w.dot(d),
        b_sum=b_sum,
        c_sum=c_sum,
        div=s.V.divergence(),
        x_sum=x_sum,
        s1=g_wV * g_uv,
        s2=g_vV * g_uw,
        s3=g_uV * g_vw,
    )


def _w_power(inv: ScenarioInvariants, exponent: int):
    """|V|^{2 exponent} as a field scalar (exponent may be negative)."""
    acc = inv.field.one
    base = inv.w if exponent >= 0 else inv.field.one / inv.w
    for _ in range(abs(exponent)):
        acc = acc * base
    return acc


def reference_term_densities(inv: ScenarioInvariants) -> Dict[str, DensityValue]:
    """Per-term densities the trace identities force; the pipeline's target.

    With A = -(1/2)(g(u,v) w(|V|^2) - ...), B/C the gradient combinations,
    D = div V (s1 - s2 + s3) and X the X-pairing bracket:

        h1 = i |V|^{-4m+4} X - |V|^{-4m+2} (A + B + C - D)
        l1 =   |V|^{-4m+2} (A - B + C + D)
        l2 = -i |V|^{-4m+4} X
        l3 = -m  |V|^{-4m+2} T1
        l4 =  2  |V|^{-4m+2} T1
        l5 = (m-1) |V|^{-4m+2} T1
        k1 =   |V|^{-4m+2} (A + B - C - D)
        k2 =   |V|^{-4m+2} (A + B + C - D)

    These sum to exactly zero: every invariant combination cancels.
    """
    fld, m = inv.field, inv.m
    wm1 = _w_power(inv, -2 * m + 1)
    wm2 = _w_power(inv, -2 * m + 2)
    a, b, c = inv.a_sum, inv.b_sum, inv.c_sum
    dd = inv.div * inv.div_alt
    t1 = inv.t1
    i_unit = fld.i
    terms = {
        "h1": i_unit * wm2 * inv.x_sum - wm1 * (a + b + c - dd),
        "l1": wm1 * (a - b + c + dd),
        "l2": (-i_unit) * wm2 * inv.x_sum,
        "l3": wm1 * t1 * fld.of(-m),
        "l4": wm1 * t1 * fld.of(2),
        "l5": wm1 * t1 * fld.of(m - 1),
        "k1": wm1 * (a + b - c - dd),
        "k2": wm1 * (a + b + c - dd),
    }
    return {k: DensityValue(v, m) for k, v in terms.items()}


def paper_term_densities(
    inv: ScenarioInvariants, reference: Dict[str, DensityValue]
) -> Dict[str, DensityValue]:
    """The per-term closed forms exactly as printed.

    They differ from the derived forms in three places: the h1 and k2
    brackets carry all-minus divergence terms (one alternating sign lost),
    and l3 carries coefficient -1/2 where the contraction yields -m.
    ``reference`` is ``reference_term_densities(inv)``, which supplies the
    other five terms.
    """
    fld, m = inv.field, inv.m
    wm1 = _w_power(inv, -2 * m + 1)
    out = dict(reference)
    a, b, c = inv.a_sum, inv.b_sum, inv.c_sum
    d_all = inv.div * inv.div_all
    out["h1"] = DensityValue(
        fld.i * _w_power(inv, -2 * m + 2) * inv.x_sum
        - wm1 * (a + b + c - d_all),
        m,
    )
    out["l3"] = DensityValue(wm1 * inv.t1 * fld.of(Fraction(-1, 2)), m)
    out["k2"] = DensityValue(wm1 * (a + b + c - d_all), m)
    return out


def paper_group_densities(
    inv: ScenarioInvariants, printed: Dict[str, DensityValue]
) -> Dict[str, DensityValue]:
    """The printed group values: the h1 bracket, the summed l-terms, and
    the k-term sum (whose printed form keeps only two divergence terms).
    ``printed`` is ``paper_term_densities(inv, ...)``."""
    fld, m = inv.field, inv.m
    h2 = printed["l1"] + printed["l2"] + printed["l3"] + printed["l4"] + printed["l5"]
    wm1 = _w_power(inv, -2 * m + 1)
    two = fld.of(2)
    h3 = DensityValue(
        wm1 * (two * inv.a_sum + two * inv.b_sum - two * inv.div * (inv.s1 + inv.s3)),
        m,
    )
    return {"h1": printed["h1"], "h2": h2, "h3": h3}


def theorem_density(inv: ScenarioInvariants) -> DensityValue:
    """The final printed closed form:

        (2m-3)/2 |V|^{-4m+2} (g(u,v) w(|V|^2) - g(u,w) v(|V|^2) + g(v,w) u(|V|^2))

    in units of 2^m Vol(S^{2m-1})."""
    m = inv.m
    coeff = inv.field.of(Fraction(2 * m - 3, 2))
    return DensityValue(coeff * _w_power(inv, -2 * m + 1) * inv.t1, m)
