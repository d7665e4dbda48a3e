/* One Metropolis sweep of every read of a simulated-annealing batch.
 *
 * The compiled twin of qamlz._sweep.numpy_sweep, operation for operation:
 * state and fields are (reads, n) row-major, j_sym is the symmetric (n, n)
 * coupler matrix with zero diagonal, h has n entries and uniforms is
 * (n, reads). Reads are independent, so each read's spins are visited in
 * index order, one read after another. Build with -ffp-contract=off so that
 * no multiply-add is fused and every rounding matches numpy's.
 */
#include <math.h>

void sa_sweep(double *restrict state, double *restrict fields,
              const double *restrict j_sym, const double *restrict h,
              const double *restrict uniforms, double temp, long reads, long n)
{
    for (long r = 0; r < reads; r++) {
        double *s = state + r * n, *f = fields + r * n;
        for (long i = 0; i < n; i++) {
            double delta = -2.0 * s[i] * (f[i] + h[i]);
            /* past the first test delta > 0 (or NaN, which rejects), so
             * max(delta, 0) is delta */
            if (delta <= 0.0 || uniforms[i * reads + r] < exp(-delta / temp)) {
                double c = 2.0 * s[i];
                const double *row = j_sym + i * n;
                for (long k = 0; k < n; k++)
                    f[k] -= c * row[k];
                s[i] = -s[i];
            }
        }
    }
}
