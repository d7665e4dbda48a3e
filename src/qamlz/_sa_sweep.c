/* The compiled loops of qamlz: the Metropolis sweeps of every read of a
 * simulated-annealing batch down a whole temperature ladder (sa_sweeps), and
 * the frontier loop of field-dominance variable fixing (fix_frontier).
 *
 * Each is the twin of a Python function in qamlz._sweep: fix_frontier
 * operation for operation, and sa_sweeps with the same decisions, draws and
 * fields, up to the sign of a zero field (see sa_sweeps). The couplers are
 * compressed sparse rows: spin i's neighbours are nb[start[i]:start[i + 1]],
 * ascending, with values vals[...]. The sweep holds its reads innermost,
 * (n, reads), so the reads of one spin are contiguous; it draws its uniforms
 * from the batch's PCG64 generator as it goes, and it calls exp only for the
 * flips that two cubic Taylor bounds on exp cannot decide.
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

/* Whether a flip of cost delta at temperature temp (> 0, inv = 1/temp) is
 * accepted for the uniform u: if delta <= 0 or u < exp(x), x = -delta/temp.
 * A flip with x <= -746 (or a NaN delta) is rejected: there exp is exactly
 * 0.0 and no uniform in [0, 1) is below it. Elsewhere two bounds decide most
 * flips without exp, or the division. For y >= 0 let P(y) = 1 + y + y^2/2 +
 * y^3/6 and L(y) = 1 - y + y^2/2 - y^3/6, the cubic Taylor polynomials of
 * e^y and e^-y. Every term of e^y's series is >= 0, so e^-y <= 1/P(y); the
 * remainder of e^-y after L(y) is e^-t y^4/24 >= 0 for some t in [0, y], so
 * e^-y >= L(y). Say exp is faithful: exp(x) is one of the two doubles around
 * e^x (it is less than 1 ulp off).
 *
 * The bounds are taken at y = delta*inv, not at -x. Where 1/temp is finite
 * it is at least 2^-1024, so it rounds within 2^-51 relative; the product and
 * x round within 2^-53 relative, or 2^-1075 absolute where they underflow.
 * So y = -x (1 + e) + a with |e| < 1e-15 and |a| <= 2^-1074, and e^x = e^-y
 * e^(y + x) lies within a factor e^(+-1e-12) of e^-y while y < 1000; above
 * that, -x > 746 and every flip is rejected, whatever the bounds say.
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
 * Where 1/temp overflows (temp below 2^-1024) the bounds decide nothing, and
 * every flip of positive cost divides and calls exp.
 *
 * The margins exceed those roundings by three orders of magnitude or more,
 * so a bound decides only where u < exp(x) gives the same answer, and the
 * samples are those of calling exp for every flip. exp is called only for
 * the uniforms between L - 1e-9 and (1 + 1e-9)/P: at most 22% of them (at
 * y = 1.6, where L = 0), and under 1% where y < 0.67 or y > 7.3. The tests
 * are computed without a branch, so that only the flips left open branch.
 */
static inline long metropolis(double delta, double temp, double inv, double u)
{
    double y = delta * inv, y2 = y * y, y6 = y * (1.0 / 6.0);
    double upper = (1.0 + y) + y2 * (0.5 + y6); /* P(y) */
    double lower = (1.0 - y) + y2 * (0.5 - y6); /* L(y) */
    long bounded = inv <= DBL_MAX;
    long accept = (delta <= 0.0) | ((u < lower - 1e-9) & bounded);
    long open = ((u * upper < 1.0 + 1e-9) | !bounded) & ~accept;
    if (__builtin_expect(open, 0)) {
        double x = -delta / temp;
        accept = x > -746.0 && u < exp(x);
    }
    return accept;
}

/* metropolis for count flips of cost delta[k] and uniform u[k] at temp,
 * into accepted[k]: the sweep's decisions, for the tests to check against
 * exp. */
void metropolis_decisions(const double *restrict delta, const double *restrict u,
                          long count, double temp, unsigned char *restrict accepted)
{
    double inv = 1.0 / temp;
    for (long k = 0; k < count; k++)
        accepted[k] = (unsigned char)metropolis(delta[k], temp, inv, u[k]);
}

/* The twin of numpy_sweep. state and fields are (n, reads) row-major, h has
 * n entries, vals are finite, temps has one temperature (> 0) per sweep,
 * words is the batch's PCG64 generator (see _pcg64.h), saved again at the
 * end, and accepted (reads entries) and mask (reads doubles) are scratch.
 * Sweep by sweep, spin i of every read is decided in index order, the reads
 * innermost, each with the generator's next uniform, in two phases: first
 * every read is decided and the accepted reads are listed, then their
 * neighbours' fields are updated row by row and their spins flip. This gives
 * the order of visiting one read after another: no flip of spin i changes
 * any read's f[i] (a spin is not its own neighbour), and each field still
 * receives the same updates in the same order. The uniforms are drawn in
 * (sweep, spin, read) order, that of one Generator.random((n, reads)) per
 * sweep.
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
 * same answer for +0.0 and -0.0. Below the quarter the scattered list is
 * cheaper.
 */
void sa_sweeps(double *restrict state, double *restrict fields,
               const int64_t *restrict start, const int64_t *restrict nb,
               const double *restrict vals, const double *restrict h,
               uint64_t *restrict words, const double *restrict temps,
               int64_t *restrict accepted, double *restrict mask,
               long sweeps, long reads, long n)
{
    pcg64_t g = pcg64_load(words);
    for (long b = 0; b < sweeps; b++) {
        double temp = temps[b], inv = 1.0 / temp;
        for (long i = 0; i < n; i++) {
            double *s = state + i * reads, *f = fields + i * reads;
            long m = 0;
            for (long r = 0; r < reads; r++) {
                double delta = -2.0 * s[r] * (f[r] + h[i]);
                /* r is written for every read and kept if m moves past it */
                accepted[m] = r;
                m += metropolis(delta, temp, inv, pcg64_next_double(&g));
            }
            if (4 * m > reads) {
                for (long r = 0; r < reads; r++)
                    mask[r] = 0.0;
                for (long a = 0; a < m; a++)
                    mask[accepted[a]] = 2.0 * s[accepted[a]];
                for (int64_t k = start[i]; k < start[i + 1]; k++) {
                    double *row = fields + nb[k] * reads, v = vals[k];
                    for (long r = 0; r < reads; r++)
                        row[r] -= mask[r] * v;
                }
            } else {
                for (int64_t k = start[i]; k < start[i + 1]; k++) {
                    double *row = fields + nb[k] * reads, v = vals[k];
                    for (long a = 0; a < m; a++)
                        row[accepted[a]] -= 2.0 * s[accepted[a]] * v;
                }
            }
            for (long a = 0; a < m; a++)
                s[accepted[a]] = -s[accepted[a]];
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
