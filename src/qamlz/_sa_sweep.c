/* The compiled loops of qamlz: blocks of Metropolis sweeps of every read of a
 * simulated-annealing batch (sa_sweeps), and the frontier loop of
 * field-dominance variable fixing (fix_frontier).
 *
 * Each is the twin of a Python function in qamlz._sweep, operation for
 * operation. The couplers are compressed sparse rows: spin i's neighbours
 * are nb[start[i]:start[i + 1]], ascending, with values vals[...]. The sweep
 * holds its reads innermost, (n, reads), so the reads of one spin are
 * contiguous, and it calls exp only for the flips that two cubic Taylor
 * bounds on exp cannot decide.
 * Build with -ffp-contract=off so that no multiply-add is fused and every
 * rounding matches numpy's.
 */
#include <math.h>
#include <stdint.h>

/* The twin of numpy_sweep. state and fields are (n, reads) row-major, h has
 * n entries, temps has one temperature (> 0) per sweep, uniforms is
 * (sweeps, n, reads) and accepted is scratch of reads entries. Sweep by
 * sweep, spin i of every read is decided in index order, the reads
 * innermost, in two phases: first every read is decided and the accepted
 * reads are listed, then their neighbours' fields are updated row by row and
 * their spins flip. This gives the order of visiting one read after another:
 * no flip of spin i changes any read's f[i] (a spin is not its own
 * neighbour), and each field still receives the same updates in the same
 * order.
 *
 * A flip is accepted if delta <= 0 or u < exp(x), x = -delta/temp. A flip
 * with x <= -746 (or a NaN delta) is rejected without calling exp: there exp
 * is exactly 0.0 and no uniform in [0, 1) is below it. Elsewhere two bounds
 * decide most flips without exp. For y = -x >= 0 let P(y) = 1 + y + y^2/2 +
 * y^3/6 and L(y) = 1 - y + y^2/2 - y^3/6, the cubic Taylor polynomials of e^y
 * and e^-y. Every term of e^y's series is >= 0, so e^-y <= 1/P(y); the
 * remainder of e^-y after L(y) is e^-t y^4/24 >= 0 for some t in [0, y], so
 * e^-y >= L(y). Say exp is faithful: exp(x) is one of the two doubles around
 * e^-y (it is less than 1 ulp off).
 *
 * - Reject if u*P >= 1 + 1e-9. P and u*P are computed from non-negative
 *   terms, within 1e-15 relative of the exact values, so the exact u*P
 *   exceeds 1 and u > 1/P(y) >= e^-y. So u is at least the least double
 *   above e^-y, and exp(x), one of the two doubles around e^-y, is at most
 *   that: u < exp(x) fails.
 * - Accept if u < L - 1e-9. As u >= 0 this holds only where L(y) > 0, at
 *   y < 1.6. There every term and partial sum of L is below 3, so the
 *   computed L is within 1e-14 of L(y), and u < L(y) - 0.9e-9 <= e^-y -
 *   0.9e-9. The greatest double at most e^-y <= 1 is within 2^-53 of it, so
 *   u is below that double, which is at most exp(x): u < exp(x) holds.
 * - Otherwise call exp.
 *
 * The margins exceed those roundings by five orders of magnitude, so a bound
 * decides only where u < exp(x) gives the same answer, and the samples are
 * those of calling exp for every flip. exp is called only for the uniforms
 * between L - 1e-9 and (1 + 1e-9)/P: at most 22% of them (at y = 1.6, where
 * L = 0), and under 1% where y < 0.67 or y > 7.3. The decision is computed
 * without a branch, so that only the flips left open branch to exp.
 */
void sa_sweeps(double *restrict state, double *restrict fields,
               const int64_t *restrict start, const int64_t *restrict nb,
               const double *restrict vals, const double *restrict h,
               const double *restrict uniforms, const double *restrict temps,
               int64_t *restrict accepted, long sweeps, long reads, long n)
{
    for (long b = 0; b < sweeps; b++) {
        double temp = temps[b];
        for (long i = 0; i < n; i++) {
            double *s = state + i * reads, *f = fields + i * reads;
            const double *u = uniforms + (b * n + i) * reads;
            long m = 0;
            for (long r = 0; r < reads; r++) {
                double delta = -2.0 * s[r] * (f[r] + h[i]);
                double x = -delta / temp, y = -x, y2 = y * y, y6 = y * (1.0 / 6.0);
                double upper = (1.0 + y) + y2 * (0.5 + y6); /* P(y) */
                double lower = (1.0 - y) + y2 * (0.5 - y6); /* L(y) */
                long accept = (delta <= 0.0) | (u[r] < lower - 1e-9);
                long open = (u[r] * upper < 1.0 + 1e-9) & ~accept;
                /* r is written for every read and kept if m moves past it */
                accepted[m] = r;
                m += accept;
                if (__builtin_expect(open, 0) && x > -746.0 && u[r] < exp(x))
                    m++;
            }
            for (int64_t k = start[i]; k < start[i + 1]; k++) {
                double *g = fields + nb[k] * reads, v = vals[k];
                for (long a = 0; a < m; a++)
                    g[accepted[a]] -= 2.0 * s[accepted[a]] * v;
            }
            for (long a = 0; a < m; a++)
                s[accepted[a]] = -s[accepted[a]];
        }
    }
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
