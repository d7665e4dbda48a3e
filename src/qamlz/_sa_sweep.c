/* The compiled loops of qamlz: blocks of Metropolis sweeps of every read of a
 * simulated-annealing batch (sa_sweeps), and the frontier loop of
 * field-dominance variable fixing (fix_frontier).
 *
 * Each is the twin of a Python function in qamlz._sweep, operation for
 * operation. The couplers are compressed sparse rows: spin i's neighbours
 * are nb[start[i]:start[i + 1]], ascending, with values vals[...].
 * Build with -ffp-contract=off so that no multiply-add is fused and every
 * rounding matches numpy's.
 */
#include <math.h>
#include <stdint.h>

/* The twin of numpy_sweep. state and fields are (reads, n) row-major, h has
 * n entries, temps has one temperature per sweep and uniforms is
 * (sweeps, n, reads). An accepted flip updates only the fields of its
 * neighbours. Sweep by sweep, each read's spins are visited in index order,
 * one read after another. A flip with -delta/temp <= -746 is rejected without
 * calling exp: there exp is exactly 0.0 and no uniform in [0, 1) is below it.
 */
void sa_sweeps(double *restrict state, double *restrict fields,
               const int64_t *restrict start, const int64_t *restrict nb,
               const double *restrict vals, const double *restrict h,
               const double *restrict uniforms, const double *restrict temps,
               long sweeps, long reads, long n)
{
    for (long b = 0; b < sweeps; b++) {
        const double *u = uniforms + b * n * reads;
        double temp = temps[b];
        for (long r = 0; r < reads; r++) {
            double *s = state + r * n, *f = fields + r * n;
            for (long i = 0; i < n; i++) {
                double delta = -2.0 * s[i] * (f[i] + h[i]);
                /* past the first test delta > 0 (or NaN, which rejects), so
                 * max(delta, 0) is delta */
                double x = -delta / temp;
                if (delta <= 0.0 || (x > -746.0 && u[i * reads + r] < exp(x))) {
                    double c = 2.0 * s[i];
                    for (int64_t k = start[i]; k < start[i + 1]; k++)
                        f[nb[k]] -= c * vals[k];
                    s[i] = -s[i];
                }
            }
        }
    }
}

/* The twin of numpy_fix. Passes run until one fixes no spin that has a live
 * neighbour; each visits its frontier (all n spins in the first pass, then
 * the live neighbours of the spins the last pass fixed) in ascending order.
 * A live spin whose |h_i| exceeds its strength, the sum of |J_ij| over its
 * live neighbours added in ascending order, is fixed to -sgn(h_i) with
 * sgn(0) = +1: it dies, and each live neighbour's field gains J_ij*s_i.
 * h and alive are updated in place; order receives the fixed spins in the
 * order they were fixed, and their count is returned. mark is scratch of n
 * bytes: bit 0 is this pass's frontier, bit 1 the next pass's.
 */
long fix_frontier(double *restrict h, unsigned char *restrict alive,
                  unsigned char *restrict mark, int64_t *restrict order,
                  const int64_t *restrict start, const int64_t *restrict nb,
                  const double *restrict vals, long n)
{
    long fixed = 0;
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
                order[fixed++] = i;
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
    return fixed;
}
