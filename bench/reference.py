"""Independent reference values for twohop outputs.

Closed form (integer total shapes).  With per-hop SNRs g1, g2 the
end-to-end SNR exceeds gamma exactly when g2 = gamma + x with x > 0 and
g1 > gamma + c/x, where c = gamma^2 + gamma (exact combiner) or gamma^2
(harmonic).  Every hop law with an integer Gamma shape, and the maximum
of such laws (transmit antenna selection), has a survival function and a
density that are finite sums of t^p e^(-r t) terms, so

    P{eq > gamma} = sum  w v e^(-(lam+mu) gamma) (gamma + c/x)^p (gamma + x)^q
                    integrated over x in (0, inf)

expands binomially into integrals  int x^(nu-1) e^(-beta/x - alpha x) dx
= 2 (beta/alpha)^(nu/2) K_nu(2 sqrt(alpha beta))  (Gradshteyn-Ryzhik
3.471.9).  For one antenna per hop this is the Hasna-Alouini closed form.
F_eq = 1 - P{eq > gamma} cancels badly in the tail, so everything runs in
mpmath at 40+ significant digits.  The M-PSK SER is the kernel integral

    SER = a sqrt(b/pi) int_0^inf e^(-b u^2) F_eq(u^2) du,

evaluated by mpmath's tanh-sinh quadrature; the three modulations of one
operating point share its F_eq evaluations.

Monte-Carlo oracle (non-integer shapes).  Hop SNRs are drawn branch by
branch with NumPy, independently of the program's simulator, and a value
passes when it lies within the oracle's simultaneous 95% halfwidth.

Nothing here imports ``twohop``: the reference has to stay correct
when the program is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import mpmath as mp
import numpy as np
from scipy import special

from workloads import Hop, total_shape

#: Working precision of the closed form (decimal digits).
DPS = 40
#: Precision the SER quadrature converges to; the reference must be far
#: tighter than any tolerance it checks (1e-7 and 1e-8 in the workloads).
QUAD_DPS = 15
#: Simultaneous 95% halfwidth of the Monte-Carlo oracle, in standard
#: deviations: two-sided 0.05 split over about 4600 values (P{|Z| > 4.4} = 1.1e-5).
MC_Z = 4.4
MC_SAMPLES = 1_000_000
_CHUNK = 1 << 17


def mod_constants(label: str) -> tuple[float, float]:
    """(a, b) of a*Q(sqrt(2*b*snr)) for BPSK and M-PSK."""
    if label == "BPSK":
        return 1.0, 1.0
    order = int(label[3:])
    return 2.0, math.sin(math.pi / order) ** 2


def hop_law(hop: Hop, mean_branch_snr: float) -> tuple[float, float, int]:
    """(shape, mean, candidates) of the hop's post-combining SNR law."""
    shape = total_shape(hop)
    if hop.scheme == "STBC":
        return shape, mean_branch_snr, 1
    mean = mean_branch_snr * hop.n_rx
    return shape, mean, hop.n_tx if hop.scheme == "TAS_MRC" else 1


def has_closed_form(op) -> bool:
    return all(float(total_shape(h)).is_integer() for h in (op.hop1, op.hop2))


# ---------------------------------------------------------------------------
# closed form

def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (p1, r1), c1 in a.items():
        for (p2, r2), c2 in b.items():
            key = (p1 + p2, r1 + r2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


class _Law:
    """Survival and density of one hop as {(power, rate multiple): coefficient}.

    Rates are integer multiples of 1/theta, theta = mean / shape.
    """

    def __init__(self, shape: int, mean: float, candidates: int):
        theta = mp.mpf(mean) / shape
        base_s = {(i, 1): 1 / (mp.factorial(i) * theta ** i) for i in range(shape)}
        base_f = {(shape - 1, 1): 1 / (mp.factorial(shape - 1) * theta ** shape)}
        self.theta = theta
        n = candidates
        if n == 1:
            self.surv, self.dens = base_s, base_f
            return
        # max of n: S = 1 - (1 - S0)^n,  f = n (1 - S0)^(n-1) f0
        powers = [{(0, 0): mp.mpf(1)}]
        for _ in range(n):
            powers.append(_poly_mul(powers[-1], base_s))
        surv: dict = {}
        for r in range(1, n + 1):
            for key, c in powers[r].items():
                surv[key] = surv.get(key, 0) + comb(n, r) * (-1) ** (r + 1) * c
        dens: dict = {}
        for r in range(n):
            for key, c in _poly_mul(powers[r], base_f).items():
                dens[key] = dens.get(key, 0) + n * comb(n - 1, r) * (-1) ** r * c
        self.surv, self.dens = surv, dens

    def groups(self, terms: dict) -> list[tuple[mp.mpf, list[list]]]:
        """Per distinct rate: (rate, shifted) with shifted[j] listing
        coefficient(p) * C(p, j) for p = j, j+1, ..., so that the
        coefficient of y^j in sum_p coefficient(p) (g + y)^p is
        fdot(shifted[j], [1, g, g^2, ...])."""
        by_rate: dict = {}
        for (p, r), c in terms.items():
            by_rate.setdefault(r, {})[p] = c
        out = []
        for r, cs in sorted(by_rate.items()):
            coef = [cs.get(p, mp.mpf(0)) for p in range(max(cs) + 1)]
            shifted = [[coef[p] * comb(p, j) for p in range(j, len(coef))]
                       for j in range(len(coef))]
            out.append((r / self.theta, shifted))
        return out


def _bessel_k01(z):
    """K_0(z), K_1(z) at the working precision.

    Power series of I_0, I_1 and the K_0 tail sum in fixed-point integer
    arithmetic (the series terms peak near e^z while K_0 ~ e^-z, so the
    lost bits are carried as extra fraction bits), then K_1 from the
    Wronskian I_0 K_1 + I_1 K_0 = 1/z.  Far out, mpmath's own routine.
    """
    if z > 60:
        return mp.besselk(0, z), mp.besselk(1, z)
    bits = mp.mp.prec + int(2.9 * float(z)) + 32
    one = 1 << bits
    zf = int(mp.ldexp(z, bits))
    t = (zf * zf) >> (bits + 2)
    term = i0 = one
    term1 = i1 = zf >> 1
    harmonic = tail = 0
    k = 0
    while term or term1:
        k += 1
        term = ((term * t) >> bits) // (k * k)
        term1 = ((term1 * t) >> bits) // (k * (k + 1))
        harmonic += one // k
        i0 += term
        i1 += term1
        tail += (term * harmonic) >> bits
    with mp.workprec(bits):
        i0, i1, tail = (mp.ldexp(v, -bits) for v in (i0, i1, tail))
        k0 = tail - (mp.log(z / 2) + mp.euler) * i0
        k1 = (1 / z - i1 * k0) / i0
    return +k0, +k1


class ClosedForm:
    """End-to-end SNR CDF of a link whose hop shapes are integers."""

    def __init__(self, hop1: Hop, hop2: Hop, hop1_db: float, hop2_db: float,
                 combiner: str):
        laws = []
        for hop, db in ((hop1, hop1_db), (hop2, hop2_db)):
            shape, mean, n = hop_law(hop, 10.0 ** (db / 10.0))
            laws.append((int(shape), mean, n))
        # Alternating sums of the selection law cancel a few more digits.
        self.dps = DPS + 10 * (laws[0][2] > 1 or laws[1][2] > 1)
        with mp.workdps(self.dps):
            law1, law2 = _Law(*laws[0]), _Law(*laws[1])
            self.surv1 = law1.groups(law1.surv)
            self.dens2 = law2.groups(law2.dens)
        self.exact = combiner == "exact"

    def cdf(self, gamma) -> mp.mpf:
        """P{eq <= gamma} at full working precision."""
        with mp.workdps(self.dps):
            g = mp.mpf(gamma)
            if g <= 0:
                return mp.mpf(0)
            return 1 - self._survival(g)

    def _survival(self, g):
        c = g * g + g if self.exact else g * g
        top = max(len(sh) for _, sh in self.surv1 + self.dens2)
        gp = [mp.mpf(1)]
        for _ in range(top):
            gp.append(gp[-1] * g)
        total = mp.mpf(0)
        for lam, a in self.surv1:
            p_max = len(a) - 1
            # (g + c/x)^p expanded: coefficient of (c/x)^j, times c^j
            cu, cj = [], mp.mpf(1)
            for row in a:
                cu.append(mp.fdot(row, gp) * cj)
                cj *= c
            for mu, b in self.dens2:
                q_max = len(b) - 1
                # (g + x)^q expanded: coefficient of x^l
                v = [mp.fdot(row, gp) for row in b]
                z = 2 * mp.sqrt(lam * mu * c)
                rho = mp.sqrt(lam * c / mu)
                k = list(_bessel_k01(z))
                for nu in range(1, max(p_max, q_max + 1)):
                    k.append(k[nu - 1] + 2 * nu / z * k[nu])
                # h[nu + p_max - 1] = 2 rho^nu K_|nu|(z), nu = 1 - p_max .. q_max + 1
                h = []
                power = 2 * rho ** (1 - p_max)
                for nu in range(1 - p_max, q_max + 2):
                    h.append(power * k[abs(nu)])
                    power *= rho
                s = mp.fsum(cu[j] * mp.fdot(v, h[p_max - j:p_max - j + q_max + 1])
                            for j in range(p_max + 1))
                total += mp.exp(-(lam + mu) * g) * s
        return total

    def ser(self, modulations, tol: float) -> dict[str, float]:
        """{label: SER} with quadrature error below tol / 1000, sharing F_eq."""
        memo: dict = {}

        def cdf_u(u):
            key = u.man, u.exp  # tanh-sinh nodes repeat across modulations
            if key not in memo:
                memo[key] = self.cdf(u * u)
            return memo[key]

        out = {}
        for label in modulations:
            a, b = mod_constants(label)
            quad_dps = QUAD_DPS
            while True:
                with mp.workdps(quad_dps):
                    b = mp.mpf(b)
                    # Normalize so the quadrature's absolute target is relative.
                    scale = max(mp.exp(-b * u * u) * cdf_u(mp.mpf(u))
                                for u in (0.5, 1, 2, 4, 8, 16, 32))
                    integral, err = mp.quad(
                        lambda u: mp.exp(-b * u * u) * cdf_u(u) / scale,
                        [0, 1, mp.inf], error=True)
                    if err <= 1e-3 * tol * integral or quad_dps > 3 * QUAD_DPS:
                        break
                quad_dps += 5
            if err > 1e-3 * tol * integral:
                raise ArithmeticError(f"reference SER for {label} did not converge")
            out[label] = float(a * mp.sqrt(b / mp.pi) * integral * scale)
        return out


# ---------------------------------------------------------------------------
# Monte-Carlo oracle

def _draw_hop(rng: np.random.Generator, hop: Hop, mean_branch: float, n: int) -> np.ndarray:
    branches = rng.gamma(hop.m, mean_branch / hop.m, size=(n, hop.n_tx, hop.n_rx))
    if hop.scheme == "MRC":
        return branches[:, 0, :].sum(axis=1)
    if hop.scheme == "STBC":
        return branches[:, :, 0].sum(axis=1) / hop.n_tx
    if hop.scheme == "STBC_MRC":
        return branches.sum(axis=(1, 2)) / hop.n_tx
    return branches.sum(axis=2).max(axis=1)


@dataclass(frozen=True)
class McOracle:
    """Equivalent-SNR samples of one operating point."""

    samples: np.ndarray

    @classmethod
    def draw(cls, hop1: Hop, hop2: Hop, hop1_db: float, hop2_db: float,
             combiner: str, seed: int, n: int = MC_SAMPLES) -> "McOracle":
        rng = np.random.Generator(np.random.PCG64(seed))
        shift = 1.0 if combiner == "exact" else 0.0
        parts = []
        for start in range(0, n, _CHUNK):  # bounded memory for 4x4 branches
            size = min(_CHUNK, n - start)
            g1 = _draw_hop(rng, hop1, 10.0 ** (hop1_db / 10.0), size)
            g2 = _draw_hop(rng, hop2, 10.0 ** (hop2_db / 10.0), size)
            parts.append(g1 * g2 / (g1 + g2 + shift))
        return cls(np.sort(np.concatenate(parts)))

    def cdf(self, gamma: float) -> tuple[float, float]:
        """(empirical CDF, simultaneous halfwidth)."""
        n = self.samples.size
        p = np.searchsorted(self.samples, gamma, side="right") / n
        return float(p), MC_Z * math.sqrt(max(p * (1 - p), 1.0 / n) / n)

    def ser(self, label: str) -> tuple[float, float]:
        """(semi-analytic SER estimate, standard deviation of one sample's SEP)."""
        a, b = mod_constants(label)
        sep = a * 0.5 * special.erfc(np.sqrt(b * self.samples))
        return float(sep.mean()), float(sep.std(ddof=1))
