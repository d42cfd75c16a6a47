"""Optional compiled hop-walk kernel for the batch routing plane.

The scalar walk (``GeospatialRouter.route``) pays a few microseconds
of interpreter time per packet-hop, which caps routing at thousands
of packets per second.  This module compiles the whole of Algorithm 1
-- the greedy hop *and* the deflection branch of the scalar walk -- as
a per-packet C loop over the shared :class:`NextHopTable` arrays,
which brings a hop down to a few dozen nanoseconds and means the batch
plane never calls the scalar walk while the kernel is loaded.

Deflection
==========
A packet deflects when it is centred on the grid but not even nearly
covered, when its preferred edge is dead (the edge mask merges faults
and the caller's ``avoid_links``), or when its preferred neighbour is
already on its path.  It then takes the live neighbour absent from the
path that minimises the remaining hop metric, exactly as
``GeospatialRouter._best_live_neighbor_snap`` does: candidates in
(up, down, left, right) column order, the reference divide-based
metric, strict ``<`` between the two destination representations and
between candidates.  No candidate left means undelivered with the
partial path.  A per-call stamp array marks each packet's path, so the
revisit test is one load on every shell (full-torus walks revisit too:
on rings of two, or at an exact half-cell tie).

The walk starts on the destination representations NumPy computed for
the whole batch.  NumPy's vectorised arcsin/arctan2 can be one ulp off
libm's, which cannot change a decision outside the guard band below.
From the first decision inside the band, or the first deflection, the
walk switches to the scalar's own representations (recomputed here on
libm): inside the band the reference arithmetic decides, and
deflection candidates one hop away in either dimension tie in real
arithmetic, so the last bit of the metric picks the winner.

The first deflection raises the packet's ``fallback`` flag and records
its cause; the walk goes on.  A walk that outgrows the caller's path
buffer stops with ``path_len == -1`` (flagged ``path_capacity`` if not
yet flagged) and is re-walked by the caller with a ``max_hops + 1``
buffer.

Bit-exactness
=============
The C source mirrors the scalar reference precisely:

* ``wrap_signed`` uses ``fmod`` with CPython's ``%`` sign adjustment
  (including the ``copysign(0.0, divisor)`` normalisation of a zero
  remainder), then the same ``> pi`` conditional subtract.
* The exact haversine replays the operand order of the scalar
  ``central_angle`` (``x * x`` squares, ``(cos * cos) * s2``, clip to
  ``[0, 1]``).
* Transcendentals come from the very libm the interpreter's ``math``
  module binds, and the build passes ``-ffp-contract=off`` so no FMA
  contraction re-associates a sum the scalar walk rounds twice.

The build is lazy and entirely optional: no C compiler, a failed
compile, or ``REPRO_NO_CKERNEL=1`` all degrade silently to the scalar
walk, packet by packet, whose results the kernel reproduces bit for
bit (the equivalence suite runs against both).  Compiled objects are
cached by source hash under ``$REPRO_KERNEL_CACHE`` (default: a
``repro-kernels`` directory in the system temp dir), so each source
revision compiles once per machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional

__all__ = ["load_kernel", "kernel_source_hash"]

_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Exactly the doubles Python's math.pi / repro.constants.TWO_PI hold. */
static const double K_PI     = 0x1.921fb54442d18p+1;
static const double K_TWO_PI = 0x1.921fb54442d18p+2;

/* CPython float % TWO_PI: fmod, shifted into the divisor's sign; a
 * zero remainder is normalised to the divisor's (positive) zero. */
static double pymod_two_pi(double a) {
    double r = fmod(a, K_TWO_PI);
    if (r != 0.0) {
        if (r < 0.0) r += K_TWO_PI;
    } else {
        r = 0.0;
    }
    return r;
}

/* repro.orbits.coordinates.wrap_signed */
static double wrap_signed(double a) {
    double w = pymod_two_pi(a);
    if (w > K_PI) w -= K_TWO_PI;
    return w;
}

/* wrap_signed for angle *differences* in (-4*pi, 2*pi) without the
 * fmod: for |d| < 2*pi the fmod inside Python's % returns d exactly,
 * so the modulo is one rounded +2*pi when negative; for d in
 * (-4*pi, -2*pi] the first +2*pi is exact (Sterbenz lemma), so a
 * second conditional add reproduces % bit-for-bit. */
static double wrap_signed_diff(double d) {
    if (d <= -2.0 * K_TWO_PI || d >= K_TWO_PI)
        return wrap_signed(d);  /* out of proven range: exact path */
    double w = d < 0.0 ? d + K_TWO_PI : d;
    if (w < 0.0) w += K_TWO_PI;
    if (w > K_PI) w -= K_TWO_PI;
    return w;
}

/* repro.orbits.coordinates.wrap_angle */
static double wrap_angle(double a) {
    double w = pymod_two_pi(a);
    return w >= K_TWO_PI ? 0.0 : w;
}

/* InclinedCoordinateSystem.both_representations, operation for
 * operation (Python's min/max argument order included), on the libm
 * the interpreter's math module binds.  NumPy's vectorised arcsin /
 * arctan2 may differ from libm in the last bit, which cannot move a
 * decision outside the guard band but can decide an exact tie: inside
 * the band, and between deflection candidates one hop away in either
 * dimension (they tie in real arithmetic). */
__attribute__((noinline, cold))
static void exact_representations(double lat, double lon, double band,
                                  double sin_i, double cos_i,
                                  double reps[4]) {
    double clamped = lat < band ? lat : band;
    clamped = clamped > -band ? clamped : -band;
    double sin_ratio = sin(clamped) / sin_i;
    sin_ratio = sin_ratio < 1.0 ? sin_ratio : 1.0;
    sin_ratio = sin_ratio > -1.0 ? sin_ratio : -1.0;
    double gamma = asin(sin_ratio);
    reps[0] = wrap_angle(lon - atan2(cos_i * sin(gamma), cos(gamma)));
    reps[1] = gamma;
    double gamma_d = K_PI - gamma;
    reps[2] = wrap_angle(lon - atan2(cos_i * sin(gamma_d), cos(gamma_d)));
    reps[3] = gamma_d;
}

/* The scalar-order haversine central angle (same expression tree as
 * coordinates.central_angle). */
static double exact_angle(double sat_lat, double sat_lon,
                          double dest_lat, double dest_lon) {
    double sd_lat = sin((dest_lat - sat_lat) / 2.0);
    double sd_lon = sin((dest_lon - sat_lon) / 2.0);
    double h = sd_lat * sd_lat
             + cos(sat_lat) * cos(dest_lat) * (sd_lon * sd_lon);
    if (h < 0.0) h = 0.0;
    if (h > 1.0) h = 1.0;
    return 2.0 * asin(sqrt(h));
}

/* Relative half-width of the guard band around each hop-offset
 * decision boundary.  The reference decisions compare correctly-
 * rounded quotients (x / delta, error <= 2^-53 relative) and their
 * rounded sums; the fast path compares the scale-invariant cross
 * products instead (x1 * dp vs x2 * dr -- the same real comparison,
 * different rounding, also within a few 2^-53 relative).  Whenever a
 * computed margin exceeds 1e-12 of the comparison scale -- over a
 * thousand times every rounding bound combined -- both evaluations
 * provably order the same way, so skipping the divisions cannot
 * change the decision.  Inside the band the reference divisions are
 * replayed verbatim. */
static const double K_GUARD = 1e-12;

/* The per-hop Algorithm 1 decision from the four *wrapped, unscaled*
 * both-representation offsets.  Returns 1 for "centered" (|da| and
 * |dg| both < 0.5 cells); else 0 with *dir_out set to the dominant-
 * dimension direction (0 up, 1 down, 2 left, 3 right).  Bit-exact
 * against the divide-based reference: the fast path only fires
 * outside the K_GUARD band (see above), everything else falls
 * through to the reference arithmetic itself -- which needs the
 * scalar's own destination representations, so with NumPy's
 * (exact == 0) it returns -1 instead and the caller retries with
 * exact ones. */
/* Called twice in the walk loop (the retry with exact
 * representations), so inlining must be forced: as an out-of-line
 * call it costs the healthy walk several percent. */
__attribute__((always_inline))
static inline int hop_decision(double wa0, double wg0, double wa1, double wg1,
                        double dr, double dp,
                        double half_dr, double half_dp, int exact,
                        int *dir_out) {
    double awa0 = fabs(wa0), awg0 = fabs(wg0);
    double awa1 = fabs(wa1), awg1 = fabs(wg1);
    /* Representation pick: (|a1|/dr + |g1|/dp) < (|a0|/dr + |g0|/dp)
     * multiplied through by dr * dp > 0. */
    double p0 = awa0 * dp + awg0 * dr;
    double p1 = awa1 * dp + awg1 * dr;
    if (fabs(p1 - p0) > K_GUARD * (p0 + p1)) {
        int desc = p1 < p0;
        double wa = desc ? wa1 : wa0, wg = desc ? wg1 : wg0;
        double awa = desc ? awa1 : awa0, awg = desc ? awg1 : awg0;
        /* |a|/dr vs 0.5 is |a| vs dr/2 (dr/2 is exact). */
        double ma = awa - half_dr, mg = awg - half_dp;
        if (fabs(ma) > K_GUARD * (awa + half_dr)
            && fabs(mg) > K_GUARD * (awg + half_dp)) {
            if (ma < 0.0 && mg < 0.0) return 1;
            /* |a|/dr vs |g|/dp multiplied through by dr * dp. */
            double qa = awa * dp, qg = awg * dr;
            if (fabs(qa - qg) > K_GUARD * (qa + qg)) {
                *dir_out = (qa > qg) ? (wa > 0.0 ? 3 : 2)
                                     : (wg > 0.0 ? 0 : 1);
                return 0;
            }
        }
    }
    /* Near a boundary (or an exact tie): the reference decides. */
    if (!exact) return -1;
    double da0 = wa0 / dr, dg0 = wg0 / dp;
    double da1 = wa1 / dr, dg1 = wg1 / dp;
    double ada0 = fabs(da0), adg0 = fabs(dg0);
    double ada1 = fabs(da1), adg1 = fabs(dg1);
    int desc = (ada1 + adg1) < (ada0 + adg0);
    double da = desc ? da1 : da0, dg = desc ? dg1 : dg0;
    double ada = desc ? ada1 : ada0, adg = desc ? adg1 : adg0;
    if (ada < 0.5 && adg < 0.5) return 1;
    *dir_out = (ada > adg) ? (da > 0.0 ? 3 : 2) : (dg > 0.0 ? 0 : 1);
    return 0;
}

/* Cold paths: exact_representations and best_live_neighbor stay out
 * of line and the walk marks their branches unlikely; inlined into the
 * hop loop they cost the healthy walk several percent. */

/* Fallback cause codes (routing.FALLBACK_CAUSES, 1-based). */
enum { CAUSE_CENTERED = 1, CAUSE_DEAD_LINK = 2, CAUSE_SEAM_REVISIT = 3,
       CAUSE_PATH_CAPACITY = 4 };

/* GeospatialRouter._best_live_neighbor_snap: among the live (edge
 * mask) neighbours absent from the path prefix, in (up, down, left,
 * right) column order, the one minimising the remaining hop metric
 * |wrap(da)/delta_raan| + |wrap(dg)/delta_phase| over the better of
 * the two destination representations -- the reference divides and
 * strict < both between representations and between candidates.
 * Deflections are rare, so there is no guard-band shortcut here.
 * visited[] == stamp marks the nodes of the path so far.
 * Returns the direction column, or -1 when no candidate survives. */
__attribute__((noinline, cold))
static int best_live_neighbor(
    int64_t cur, const int32_t *visited, int32_t stamp,
    double A0, double G0, double A1, double G1,
    double delta_raan, double delta_phase,
    const double *t_alpha, const double *t_gamma,
    const int32_t *t_nbr, const uint8_t *t_edge)
{
    int best = -1;
    double best_metric = INFINITY;
    for (int d = 0; d < 4; d++) {
        int64_t off = cur * 4 + d;
        if (t_edge && !t_edge[off]) continue;
        int32_t nbr = t_nbr[off];
        if (visited[nbr] == stamp) continue;
        double m0 = fabs(wrap_signed_diff(A0 - t_alpha[nbr]) / delta_raan)
                  + fabs(wrap_signed_diff(G0 - t_gamma[nbr]) / delta_phase);
        double m1 = fabs(wrap_signed_diff(A1 - t_alpha[nbr]) / delta_raan)
                  + fabs(wrap_signed_diff(G1 - t_gamma[nbr]) / delta_phase);
        double metric = m1 < m0 ? m1 : m0;
        if (metric < best_metric) {
            best_metric = metric;
            best = d;
        }
    }
    return best;
}

/* One Algorithm 1 walk per packet, identical decision structure to
 * GeospatialRouter.route: coverage screen (dot product against the
 * destination radial, guard-banded exact re-test), both-
 * representation hop offsets, strict-< representation pick,
 * dominant-dimension direction, and deflection to the best live
 * unvisited neighbour when the packet is centred but not nearly
 * covered, its preferred edge is dead (t_edge, NULL = all live) or
 * its preferred neighbour is already on the path.  visited[s] == i + 1
 * marks the nodes of packet i's path (one stamp per satellite, all
 * below 1 on entry), so no per-packet clearing is needed.
 *
 * The first such event raises fallback[i] and records its cause; the
 * walk then goes on.  A walk that outgrows path_cap - 1 hops is
 * stopped with path_len[i] = -1 (flagged path_capacity unless
 * already flagged) for the caller to re-walk with a wider buffer;
 * the return value counts those rows.  With path_cap = max_hops + 1
 * no walk is ever stopped. */
int64_t walk_chunk(
    int64_t n, int64_t max_hops, int64_t path_cap,
    double theta, double slack_theta, double cos_in, double cos_out,
    double delta_raan, double delta_phase,
    double band, double sin_i, double cos_i,
    const int64_t *src,
    const double *a0, const double *g0,
    const double *a1, const double *g1,
    const double *dest_lat, const double *dest_lon,
    const double *ux, const double *uy, const double *uz,
    const double *t_alpha, const double *t_gamma,
    const double *t_slat, const double *t_slon,
    const double *t_ux, const double *t_uy, const double *t_uz,
    const int32_t *t_nbr, const double *t_hop, const double *t_delay,
    const uint8_t *t_edge, int32_t *visited,
    uint8_t *delivered, uint8_t *degraded, uint8_t *fallback,
    uint8_t *cause_out,
    double *delay_out, double *dist_out,
    int32_t *path_len, int32_t *paths)
{
    const double half_dr = 0.5 * delta_raan;   /* exact */
    const double half_dp = 0.5 * delta_phase;  /* exact */
    int64_t overflow = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t cur = src[i];
        /* Destination representations: NumPy's (which may differ from
         * the scalar's in the last bit) until a decision falls inside
         * the guard band or the walk first deflects, the scalar's
         * exact ones from then on. */
        double A0 = a0[i], G0 = g0[i];
        double A1 = a1[i], G1 = g1[i];
        double reps[4];
        int exact = 0;
        const double DLAT = dest_lat[i], DLON = dest_lon[i];
        const double UX = ux[i], UY = uy[i], UZ = uz[i];
        double delay = 0.0, dist = 0.0;
        int32_t *path = paths + i * path_cap;
        const int32_t stamp = (int32_t)(i + 1);
        path[0] = (int32_t)cur;
        visited[cur] = stamp;
        int64_t nodes = -1;  /* path length once resolved */
        int stopped = 0;     /* outgrew the path buffer */
        for (int64_t step = 0; step < max_hops; step++) {
            double dot = t_ux[cur] * UX + t_uy[cur] * UY
                       + t_uz[cur] * UZ;
            int covered;
            if (dot >= cos_in) {
                covered = 1;
            } else if (dot > cos_out) {
                covered = exact_angle(t_slat[cur], t_slon[cur],
                                      DLAT, DLON) <= theta;
            } else {
                covered = 0;
            }
            if (covered) {
                delivered[i] = 1;
                nodes = step + 1;
                break;
            }
            double wa0 = wrap_signed_diff(A0 - t_alpha[cur]);
            double wg0 = wrap_signed_diff(G0 - t_gamma[cur]);
            double wa1 = wrap_signed_diff(A1 - t_alpha[cur]);
            double wg1 = wrap_signed_diff(G1 - t_gamma[cur]);
            int dir = 0, cause = 0;
            int centered = hop_decision(wa0, wg0, wa1, wg1,
                                        delta_raan, delta_phase,
                                        half_dr, half_dp, exact, &dir);
            if (__builtin_expect(centered < 0, 0)) {
                exact_representations(DLAT, DLON, band, sin_i, cos_i,
                                      reps);
                A0 = reps[0]; G0 = reps[1]; A1 = reps[2]; G1 = reps[3];
                exact = 1;
                wa0 = wrap_signed_diff(A0 - t_alpha[cur]);
                wg0 = wrap_signed_diff(G0 - t_gamma[cur]);
                wa1 = wrap_signed_diff(A1 - t_alpha[cur]);
                wg1 = wrap_signed_diff(G1 - t_gamma[cur]);
                centered = hop_decision(wa0, wg0, wa1, wg1,
                                        delta_raan, delta_phase,
                                        half_dr, half_dp, 1, &dir);
            }
            if (centered) {
                if (exact_angle(t_slat[cur], t_slon[cur],
                                DLAT, DLON) <= slack_theta) {
                    delivered[i] = 1;
                    degraded[i] = 1;
                    nodes = step + 1;
                    break;
                }
                /* Centred but not even nearly covered. */
                cause = CAUSE_CENTERED;
            } else if (t_edge && !t_edge[cur * 4 + dir]) {
                cause = CAUSE_DEAD_LINK;
            } else if (visited[t_nbr[cur * 4 + dir]] == stamp) {
                cause = CAUSE_SEAM_REVISIT;
            }
            if (__builtin_expect(cause != 0, 0)) {
                if (!fallback[i]) {
                    fallback[i] = 1;
                    cause_out[i] = (uint8_t)cause;
                }
                if (!exact) {
                    exact_representations(DLAT, DLON, band, sin_i, cos_i,
                                          reps);
                    A0 = reps[0]; G0 = reps[1]; A1 = reps[2]; G1 = reps[3];
                    exact = 1;
                }
                dir = best_live_neighbor(cur, visited, stamp,
                                         A0, G0, A1, G1,
                                         delta_raan, delta_phase,
                                         t_alpha, t_gamma, t_nbr, t_edge);
                if (dir < 0) {
                    /* Nowhere left to go: undelivered, partial path. */
                    nodes = step + 1;
                    break;
                }
            }
            if (step + 1 >= path_cap) {
                /* Path buffer exhausted: the caller re-walks the row
                 * with a max_hops + 1 buffer. */
                if (!fallback[i]) {
                    fallback[i] = 1;
                    cause_out[i] = CAUSE_PATH_CAPACITY;
                }
                nodes = step + 1;
                stopped = 1;
                break;
            }
            /* t_delay is hop_km / c precomputed edgewise -- the same
             * two operands, the same correctly-rounded IEEE divide,
             * therefore the same quotient bits as the scalar's
             * per-hop division. */
            int64_t off = cur * 4 + dir;
            delay += t_delay[off];
            dist += t_hop[off];
            cur = t_nbr[off];
            path[step + 1] = (int32_t)cur;
            visited[cur] = stamp;
        }
        if (nodes < 0) {
            /* max_hops levels exhausted: undelivered, partial path. */
            nodes = max_hops + 1;
        }
        if (stopped) {
            path_len[i] = -1;
            overflow++;
        } else {
            delay_out[i] = delay;
            dist_out[i] = dist;
            path_len[i] = (int32_t)nodes;
        }
    }
    return overflow;
}
"""

#: -O2 without fast-math; contraction off so a*b+c never fuses into an
#: FMA the scalar walk would have rounded in two steps.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lock = threading.Lock()
_cached: Optional[ctypes.CDLL] = None
_load_attempted = False


def kernel_source_hash() -> str:
    """Content hash naming the compiled object (cache key).

    Covers the compile flags too: a flag change (e.g. contraction
    settings) must never reuse an object built under different ones.
    """
    key = _KERNEL_SOURCE + "\x00" + " ".join(_CFLAGS)
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    pointer_args: List[type] = [ctypes.c_void_p] * 30
    lib.walk_chunk.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
    ] + pointer_args
    lib.walk_chunk.restype = ctypes.c_int64
    return lib


def _compile() -> Optional[ctypes.CDLL]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    directory = _cache_dir()
    so_path = os.path.join(directory,
                           f"walk_{kernel_source_hash()}.so")
    if os.path.exists(so_path):
        try:
            return _configure(ctypes.CDLL(so_path))
        except OSError:
            pass  # stale/corrupt cache entry; rebuild below
    try:
        os.makedirs(directory, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_KERNEL_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        result = subprocess.run(
            [compiler] + _CFLAGS + [c_path, "-o", tmp_so, "-lm"],
            capture_output=True, timeout=120)
        if result.returncode != 0:
            return None
        # Atomic publish so concurrent builders never load a half-
        # written object.
        os.replace(tmp_so, so_path)
        return _configure(ctypes.CDLL(so_path))
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for leftover in (locals().get("c_path"),):
            if leftover and os.path.exists(leftover):
                try:
                    os.remove(leftover)
                except OSError:
                    pass


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled walk kernel, or ``None`` when unavailable.

    ``None`` means: disabled via ``REPRO_NO_CKERNEL`` (read on every
    call), no C compiler on PATH, or the build failed -- callers fall
    back to the scalar walk in every case.  The build outcome (either
    way) is memoised.
    """
    global _cached, _load_attempted  # repro: ignore[shard-purity] -- once-only lazy compile; kernel is bit-exact vs the scalar walk
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            _cached = _compile()
        return _cached
