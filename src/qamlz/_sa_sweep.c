/* The compiled loops of qamlz: the Metropolis sweeps of every read of a
 * simulated-annealing batch down a whole temperature ladder (sa_sweeps), and
 * the frontier loop of field-dominance variable fixing (fix_frontier).
 *
 * Each is the twin of a Python function in qamlz._sweep: fix_frontier
 * operation for operation, and sa_sweeps with the same decisions, draws and
 * fields, up to the sign of a zero field (see sa_sweeps). The couplers are
 * compressed sparse rows: spin i's neighbours are nb[start[i]:start[i + 1]],
 * ascending, with values vals[...]. The sweep holds its reads innermost,
 * (n, reads), so the reads of one spin are contiguous; it draws one spin
 * row's uniforms at a time from the batch's PCG64 generator, decides the
 * row's reads in a vectorised pass, and calls exp only for the flips that
 * two cubic Taylor bounds on exp cannot decide.
 * Build with -ffp-contract=off so that no multiply-add is fused and every
 * rounding matches numpy's. -O3 vectorises elementwise loops only: GCC and
 * Clang reorder floating-point operations only under -ffast-math or
 * -fassociative-math, so each element gets the same operations in the same
 * order at -O0 as at -O3.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>

#include "_pcg64.h"

/* ISA_CLONES builds a function once per x86-64 level, and the dynamic
 * loader picks the best one the CPU runs (GCC's target_clones, an ifunc of
 * glibc). The clones compile one body: -ffp-contract=off keeps even the
 * FMA-capable levels from fusing a multiply-add, and the vectorised loops
 * do elementwise what the scalar ones do, so every clone makes the same
 * decisions, draws and fields. x86-64-v2 (SSE4.2) is there because the
 * baseline clone (SSE2) runs the split passes of sa_sweeps slower than one
 * fused scalar loop. Elsewhere, or built with -DQAMLZ_NO_CLONES (as the
 * tests build it for each level in turn), the plain body is compiled. */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && defined(__x86_64__) \
    && defined(__GLIBC__) && !defined(QAMLZ_NO_CLONES)
#define ISA_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "arch=x86-64-v2", "default")))
#else
#define ISA_CLONES
#endif

/* Whether each of count reads flips its spin s[r], whose field is f[r] + hi,
 * at temperature temp (> 0) for the uniform u[r]: flag[r] = 1 if the flip's
 * cost delta = -2*s*(f + hi) is <= 0 or u < exp(x), x = -delta/temp, and 0
 * otherwise. A flip with x <= -746 (or a NaN delta) is rejected: there exp
 * is exactly 0.0 and no uniform in [0, 1) is below it. Elsewhere two bounds
 * decide most flips without exp, or the division. For y >= 0 let P(y) = 1 +
 * y + y^2/2 + y^3/6 and L(y) = 1 - y + y^2/2 - y^3/6, the cubic Taylor
 * polynomials of e^y and e^-y. Every term of e^y's series is >= 0, so e^-y
 * <= 1/P(y); the remainder of e^-y after L(y) is e^-t y^4/24 >= 0 for some
 * t in [0, y], so e^-y >= L(y). Say exp is faithful: exp(x) is one of the
 * two doubles around e^x (it is less than 1 ulp off).
 *
 * The bounds are taken at y = delta*inv, inv = 1/temp, not at -x. Where inv
 * is finite it is at least 2^-1024, so it rounds within 2^-51 relative; the
 * product and x round within 2^-53 relative, or 2^-1075 absolute where they
 * underflow. So y = -x (1 + e) + a with |e| < 1e-15 and |a| <= 2^-1074, and
 * e^x = e^-y e^(y + x) lies within a factor e^(+-1e-12) of e^-y while y <
 * 1000; above that, -x > 746 and every flip is rejected, whatever the
 * bounds say.
 *
 * - Reject if u*P >= 1 + 1e-9. P and u*P are computed from non-negative
 *   terms, within 1e-15 relative of the exact values, so the exact u*P
 *   exceeds 1 + 0.99e-9 and u > (1 + 0.99e-9)/P(y) >= (1 + 0.99e-9) e^-y >
 *   e^x. So u is at least the least double above e^x, and exp(x), one of
 *   the two doubles around e^x, is at most that: u < exp(x) fails.
 * - Accept if u < L - 1e-9. As u >= 0 this holds only where L(y) > 0, at
 *   y < 1.6. There every term and partial sum of L is below 3, so the
 *   computed L is within 1e-14 of L(y), and u < L(y) - 0.9e-9 <= e^-y -
 *   0.9e-9 < e^x - 0.8e-9. The greatest double at most e^x <= 1 is within
 *   2^-53 of it, so u is below that double, which is at most exp(x): u <
 *   exp(x) holds.
 * - Otherwise divide and call exp.
 *
 * Where inv overflows (temp below 2^-1024) the bounds decide nothing, and
 * every flip of positive cost divides and calls exp.
 *
 * The margins exceed those roundings by three orders of magnitude or more,
 * so a bound decides only where u < exp(x) gives the same answer, and the
 * samples are those of calling exp for every flip. exp is called only for
 * the uniforms between L - 1e-9 and (1 + 1e-9)/P: at most 22% of them (at
 * y = 1.6, where L = 0), and under 1% where y < 0.67 or y > 7.3.
 *
 * The work is two passes. The first evaluates both bounds for every flip
 * without a branch, into flag[r]: 1 accepted, 2 open, 0 rejected. It is an
 * elementwise loop over doubles and flags of their width, the width of the
 * compare masks, so it vectorises with no narrowing. The second divides
 * and calls exp for the open flips alone, with -delta computed as 2*s*(f +
 * hi), which is the same double (rounding to nearest is symmetric in sign).
 * This is the sweep's decision code; metropolis_decisions exports it for
 * the tests. */
static inline void metropolis_row(const double *restrict s, const double *restrict f,
                                  double hi, const double *restrict u, long count, double temp,
                                  int64_t *restrict flag)
{
    double inv = 1.0 / temp;
    int64_t bounded = inv <= DBL_MAX;
    for (long r = 0; r < count; r++) {
        double delta = -2.0 * s[r] * (f[r] + hi);
        double y = delta * inv, y2 = y * y, y6 = y * (1.0 / 6.0);
        double upper = (1.0 + y) + y2 * (0.5 + y6); /* P(y) */
        double lower = (1.0 - y) + y2 * (0.5 - y6); /* L(y) */
        int64_t accept = (delta <= 0.0) | ((u[r] < lower - 1e-9) & bounded);
        int64_t open = ((u[r] * upper < 1.0 + 1e-9) | !bounded) & ~accept;
        flag[r] = accept | open << 1;
    }
    for (long r = 0; r < count; r++)
        if (__builtin_expect(flag[r] > 1, 0)) {
            double x = 2.0 * s[r] * (f[r] + hi) / temp; /* -delta/temp */
            flag[r] = x > -746.0 && u[r] < exp(x);
        }
}

/* metropolis_row for count reads of spin s[r], field f[r] + hi and uniform
 * u[r] at temp, into accepted[r], built as the same clones as the sweep. */
ISA_CLONES
void metropolis_decisions(const double *restrict s, const double *restrict f, double hi,
                          const double *restrict u, long count, double temp,
                          int64_t *restrict accepted)
{
    metropolis_row(s, f, hi, u, count, temp, accepted);
}

/* The twin of numpy_sweep. state and fields are (n, reads) row-major, h has
 * n entries, vals are finite, temps has one temperature (> 0) per sweep,
 * words is the batch's PCG64 generator (see _pcg64.h), saved again at the
 * end, and accepted, mask, uniforms and flags (reads entries each) are
 * scratch. Sweep by sweep, spin i of every read is decided in index order,
 * the reads innermost, each with the generator's next uniform, in four
 * passes over the row's reads:
 *
 * 1. its reads uniforms, drawn four states at a time (pcg64_fill);
 * 2. the bounds of metropolis_row for every read, without a branch;
 * 3. exp for the flips those leave open;
 * 4. the accepted reads counted, their neighbour fields updated row by row
 *    and their spins flipped.
 *
 * This gives the order of visiting one read after another: no flip of spin
 * i changes any read's f[i] (a spin is not its own neighbour), and each
 * field still receives the same updates in the same order. The uniforms are
 * drawn in (sweep, spin, read) order, that of one
 * Generator.random((n, reads)) per sweep.
 *
 * Where more than a quarter of the reads accept (hot sweeps), each
 * neighbour row is updated whole, in a contiguous loop that vectorises:
 * row[r] -= mask[r] * v, with mask[r] = 2*s[r] for an accepted read and 0.0
 * for the rest. An accepted read gets the list's operations, as 2*s[r] is
 * exact; a rejected read subtracts (+-0.0)*v = +-0.0 from its field, since v
 * is finite. That leaves a nonzero field as it is and can change only the
 * sign of a zero field, which never changes a decision: delta = -2*s*(f + h)
 * and f + h are equal as numbers for f = +0.0 and f = -0.0, and both tests
 * on delta (<= 0, and the bounds and exp through y = delta*inv) give the
 * same answer for +0.0 and -0.0. The spins then flip where their flag is
 * set. Below the quarter the reads are listed, and the list is cheaper.
 */
ISA_CLONES
void sa_sweeps(double *restrict state, double *restrict fields,
               const int64_t *restrict start, const int64_t *restrict nb,
               const double *restrict vals, const double *restrict h,
               uint64_t *restrict words, const double *restrict temps,
               int64_t *restrict accepted, double *restrict mask,
               double *restrict uniforms, int64_t *restrict flags,
               long sweeps, long reads, long n)
{
    pcg64_t g = pcg64_load(words);
    pcg64_jumps_t jumps = pcg64_jumps(&g);
    for (long b = 0; b < sweeps; b++) {
        for (long i = 0; i < n; i++) {
            double *s = state + i * reads, *f = fields + i * reads;
            pcg64_fill(&g, &jumps, uniforms, reads);
            metropolis_row(s, f, h[i], uniforms, reads, temps[b], flags);
            long m = 0;
            for (long r = 0; r < reads; r++)
                m += flags[r];
            if (4 * m > reads) {
                for (long r = 0; r < reads; r++)
                    mask[r] = flags[r] ? 2.0 * s[r] : 0.0;
                for (int64_t k = start[i]; k < start[i + 1]; k++) {
                    double *row = fields + nb[k] * reads, v = vals[k];
                    for (long r = 0; r < reads; r++)
                        row[r] -= mask[r] * v;
                }
                for (long r = 0; r < reads; r++)
                    s[r] = flags[r] ? -s[r] : s[r];
            } else if (m > 0) {
                for (long r = 0, a = 0; r < reads; r++) {
                    /* r is written for every read and kept if a moves past it */
                    accepted[a] = r;
                    a += flags[r];
                }
                for (int64_t k = start[i]; k < start[i + 1]; k++) {
                    double *row = fields + nb[k] * reads, v = vals[k];
                    for (long a = 0; a < m; a++)
                        row[accepted[a]] -= 2.0 * s[accepted[a]] * v;
                }
                for (long a = 0; a < m; a++)
                    s[accepted[a]] = -s[accepted[a]];
            }
        }
    }
    pcg64_save(&g, words);
}

/* The twin of numpy_fix. Passes run until one fixes no spin that has a live
 * neighbour; each visits its frontier (all n spins in the first pass, then
 * the live neighbours of the spins the last pass fixed) in ascending order.
 * A live spin whose |h_i| exceeds its strength, the sum of |J_ij| over its
 * live neighbours added in ascending order, is fixed to -sgn(h_i) with
 * sgn(0) = +1: it dies, and each live neighbour's field gains J_ij*s_i.
 * h and alive are updated in place, and a dead spin's field is not touched
 * again. mark is scratch of n bytes: bit 0 is this pass's frontier, bit 1
 * the next pass's.
 */
void fix_frontier(double *restrict h, unsigned char *restrict alive,
                  unsigned char *restrict mark,
                  const int64_t *restrict start, const int64_t *restrict nb,
                  const double *restrict vals, long n)
{
    int more = n > 0;
    for (long i = 0; i < n; i++)
        mark[i] = 1;
    while (more) {
        more = 0;
        for (long i = 0; i < n; i++) {
            if (!(mark[i] & 1) || !alive[i])
                continue;
            double strength = 0.0;
            for (int64_t k = start[i]; k < start[i + 1]; k++)
                if (alive[nb[k]])
                    strength += fabs(vals[k]);
            if (fabs(h[i]) > strength) {
                double s = h[i] >= 0.0 ? -1.0 : 1.0;
                alive[i] = 0;
                for (int64_t k = start[i]; k < start[i + 1]; k++)
                    if (alive[nb[k]]) {
                        h[nb[k]] += vals[k] * s;
                        mark[nb[k]] |= 2;
                        more = 1;
                    }
            }
        }
        for (long i = 0; i < n; i++)
            mark[i] >>= 1;
    }
}
