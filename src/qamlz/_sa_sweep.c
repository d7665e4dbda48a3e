/* A block of Metropolis sweeps of every read of a simulated-annealing batch.
 *
 * The compiled twin of qamlz._sweep.numpy_sweep, operation for operation:
 * state and fields are (reads, n) row-major, h has n entries, temps has one
 * temperature per sweep and uniforms is (sweeps, n, reads). The couplers are
 * compressed sparse rows: spin i's neighbours are nb[start[i]:start[i + 1]]
 * with values vals[...], so an accepted flip updates only the fields of its
 * neighbours. Sweep by sweep, each read's spins are visited in index order,
 * one read after another. A flip with -delta/temp <= -746 is rejected without
 * calling exp: there exp is exactly 0.0 and no uniform in [0, 1) is below it.
 * Build with -ffp-contract=off so that no multiply-add is fused and every
 * rounding matches numpy's.
 */
#include <math.h>
#include <stdint.h>

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
