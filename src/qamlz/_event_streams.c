/* The event streams of qamlz.dataset: event i of a sample drawn at `seed`
 * draws only from numpy's default_rng((seed, i)), a PCG64 generator. Here
 * each stream is four uint64 words, (state hi, state lo, inc hi, inc lo):
 * stream_seed computes them for a run of indices; stream_head draws each
 * event's class and process uniforms from them and stream_attempts its
 * Gaussian attempts, up to the first one that may lie inside the bounds,
 * and both save them again.
 *
 * The draws are numpy's own: the normals come from random_standard_normal
 * of the libnpyrandom.a that numpy ships (numpy/random/lib/), linked into
 * this library, through a bitgen_t that steps one event's words; the
 * uniforms are PCG64's next_double. So every value is the one the event's
 * own Generator would give, bit for bit.
 *
 * distributions.h needs Python.h, so bitgen_t (numpy/random/bitgen.h) and
 * the one prototype are declared here.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>

#include "_pcg64.h"

typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_normal(bitgen_t *bitgen_state);

/* SeedSequence's hash constants */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

/* the bitgen_t callbacks of one stream */
static uint64_t next_uint64(void *st)
{
    return pcg64_next(st);
}

static double next_double(void *st)
{
    return pcg64_next_double(st);
}

/* random_standard_normal reads only next_uint64 and next_double */
static bitgen_t bitgen_of(pcg64_t *g)
{
    bitgen_t b = {g, next_uint64, 0, next_double, next_uint64};
    return b;
}

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ (result >> 16);
}

/* words[j] = the PCG64 state of default_rng((seed, start + j)), for j < n.
 *
 * SeedSequence's entropy is the key's 32-bit words, least significant
 * first: one for a seed below 2^32 and two above, then one or two for the
 * index. It is hashed into a pool of 4 words, padded with hashes of 0, so a
 * zero high word of the index, the last word of the key, hashes as the
 * padding does. With seed and index below 2^64 the key has at most 4 words,
 * so nothing is mixed in beyond the pool. PCG64 takes generate_state(4,
 * uint64) as (initstate, initseq) and starts as pcg_setseq_128_srandom_r:
 * from state 0, step, add initstate, step.
 */
void stream_seed(uint64_t seed, uint64_t start, long n, uint64_t *restrict words)
{
    for (long j = 0; j < n; j++) {
        uint64_t i = start + (uint64_t)j;
        uint32_t key[4] = {0, 0, 0, 0}, pool[4], out[8];
        int m = 0;
        key[m++] = (uint32_t)seed;
        if (seed >> 32)
            key[m++] = (uint32_t)(seed >> 32);
        key[m++] = (uint32_t)i;
        if (m < 4)
            key[m] = (uint32_t)(i >> 32);
        uint32_t hash_const = INIT_A;
        for (int d = 0; d < 4; d++)
            pool[d] = hashmix(key[d], &hash_const);
        for (int s = 0; s < 4; s++)
            for (int d = 0; d < 4; d++)
                if (s != d)
                    pool[d] = mix(pool[d], hashmix(pool[s], &hash_const));
        hash_const = INIT_B;
        for (int d = 0; d < 8; d++) {
            uint32_t v = pool[d % 4] ^ hash_const;
            hash_const *= MULT_B;
            v *= hash_const;
            out[d] = v ^ (v >> 16);
        }
        u128 initstate = ((u128)out[1] << 96) | ((u128)out[0] << 64)
                         | ((u128)out[3] << 32) | out[2];
        u128 initseq = ((u128)out[5] << 96) | ((u128)out[4] << 64)
                       | ((u128)out[7] << 32) | out[6];
        pcg64_t g = {0, (initseq << 1) | 1};
        pcg64_step(&g);
        g.state += initstate;
        pcg64_step(&g);
        pcg64_save(&g, words + 4 * j);
    }
}

/* For each of the n streams in words: the class uniform u, then, if u >=
 * signal_fraction (a background event), the process uniform into u_bg[j],
 * else NaN. */
void stream_head(uint64_t *restrict words, long n, double signal_fraction,
                 double *restrict u_bg)
{
    for (long j = 0; j < n; j++) {
        pcg64_t g = pcg64_load(words + 4 * j);
        u_bg[j] = pcg64_next_double(&g) >= signal_fraction ? pcg64_next_double(&g) : NAN;
        pcg64_save(&g, words + 4 * j);
    }
}

/* The verdicts of screen, and the flag of the attempt stream_attempts keeps */
#define OUTSIDE (-1)
#define OPEN 0
#define INSIDE 1
#define CAPPED 2

/* Whether the attempt x = mean + fac z (fac k x k, row-major) lies inside
 * [lo, hi] in every variable, as the caller's BLAS product will compute it:
 * OUTSIDE or INSIDE where that is sure, OPEN where it is not.
 *
 * Each variable i is computed here as x~ = mean_i + sum_j fac_ij z_j and
 * s~ = |mean_i| + sum_j |fac_ij z_j|, both summed in j order with the same
 * roundings (no fused multiply-add, -ffp-contract=off). The caller computes
 * x_i as mean + (fac @ z) with gemv, in whatever order and with or without
 * FMA. Let u = 2^-53, g = (k+1)u/(1-(k+1)u), X the exact value and T =
 * |mean_i| + sum_j |fac_ij z_j|.
 *
 * - Any evaluation that rounds each operation to double once, sums the k
 *   products in any order and adds mean_i last passes each product through
 *   at most k + 1 roundings, so it lies within g T of X. With gradual
 *   underflow a product, or a fused multiply-add, that rounds into the
 *   subnormals adds at most 2^-1075 more, and a sum that does is exact: k
 *   2^-1074 in all. Both x~ and x_i are such evaluations, so they differ by
 *   d <= 2 g T + k 2^-1073, barring overflow.
 * - s~ sums k + 1 non-negative terms the same way, so T <= (s~ + k 2^-1074)
 *   / (1 - g). Below s~ = 2^1020 nothing either evaluation forms reaches
 *   the overflow threshold; a NaN or infinite mean, factor or product makes
 *   s~ NaN or infinite, and the variable decides nothing (OPEN) unless
 *   another one is surely outside.
 * - Rounding is monotone and symmetric, and x~ and s~ take the same steps,
 *   so |x~| <= s~.
 * - The margin is e = (c s~ + DBL_MIN) scale with c = 4(k+2)u and scale >=
 *   1. For k < 2^40 the rounded e satisfies e (1 - u) >= d + u s~: the
 *   relative terms of d + u s~ are below (2k+3)u s~ (1 + 2^-11), which c s~
 *   exceeds by more than 2u s~, far above the three roundings of e; the
 *   absolute ones are below k 2^-1072 + 2^-1075, which DBL_MIN = 2^-1022
 *   exceeds 2^9-fold. Multiplying by scale >= 1 never lowers e.
 * - Surely below if fl(x~ + e) < lo: then x~ + e < lo (monotone rounding,
 *   lo a double), so x_i <= x~ + d < lo. Surely above likewise.
 * - Surely inside if lo <= fl(x~ - e) and fl(x~ + e) <= hi: x~ - e lies
 *   within u |x~ - e| <= u (s~ + e) of its rounding, so x_i >= x~ - d >= lo
 *   + e (1 - u) - u s~ - d >= lo. Likewise x_i <= hi.
 *
 * Every comparison is false on NaN, so a NaN bound or value never decides
 * a variable. An infinite bound never makes a variable outside, and makes
 * it inside for any x~ below the overflow cut. The attempt is OUTSIDE when
 * one variable is surely outside, INSIDE when every one is surely inside.
 * This is stream_attempts' screen; screen_attempts exports it for the
 * tests. */
static inline int screen(long k, const double *restrict mean, const double *restrict fac,
                         const double *restrict z, const double *restrict lo,
                         const double *restrict hi, double scale)
{
    double c = 4.0 * (double)(k + 2) * 0x1p-53;
    int inside = 1;
    for (long i = 0; i < k; i++) {
        double x = 0.0, s = 0.0;
        for (long j = 0; j < k; j++) {
            double p = fac[i * k + j] * z[j];
            x += p;
            s += fabs(p);
        }
        x = mean[i] + x;
        s = fabs(mean[i]) + s;
        double e = (c * s + DBL_MIN) * scale;
        int sure = s < 0x1p1020;
        if (sure && (x + e < lo[i] || x - e > hi[i]))
            return OUTSIDE;
        inside &= sure && lo[i] <= x - e && x + e <= hi[i];
    }
    return inside ? INSIDE : OPEN;
}

/* screen for n attempts: attempt a has mean[a k ...], fac[a k k ...],
 * z[a k ...] and bounds lo[a k ...], hi[a k ...]; its verdict into
 * verdict[a]. */
void screen_attempts(long n, long k, const double *restrict mean, const double *restrict fac,
                     const double *restrict z, const double *restrict lo,
                     const double *restrict hi, double scale, int8_t *restrict verdict)
{
    for (long a = 0; a < n; a++)
        verdict[a] = (int8_t)screen(k, mean + a * k, fac + a * k * k, z + a * k, lo + a * k,
                                    hi + a * k, scale);
}

/* For each of the m streams words[rows[j]], with tries[rows[j]] attempts
 * drawn so far: its next Gaussian attempts of model[j], k standard normals
 * each, until one that screen does not find surely outside, with means[model
 * k ...], facs[model k k ...], lo, hi and scale. That attempt's normals go
 * into z[j k ...] and its verdict, INSIDE or OPEN, into flag[j]; the attempt
 * of index cap is drawn unscreened and flagged CAPPED. The stream and its
 * count of attempts drawn are saved, so a caller that rejects an OPEN
 * attempt resumes the event with a second call. */
void stream_attempts(uint64_t *restrict words, int64_t *restrict tries,
                     const int64_t *restrict rows, const int64_t *restrict model, long m,
                     const double *restrict means, const double *restrict facs, long k,
                     const double *restrict lo, const double *restrict hi, int64_t cap,
                     double scale, double *restrict z, int8_t *restrict flag)
{
    for (long j = 0; j < m; j++) {
        int64_t r = rows[j], t = tries[r];
        const double *mean = means + model[j] * k, *fac = facs + model[j] * k * k;
        double *zj = z + j * k;
        pcg64_t g = pcg64_load(words + 4 * r);
        bitgen_t b = bitgen_of(&g);
        int verdict;
        do {
            for (long c = 0; c < k; c++)
                zj[c] = random_standard_normal(&b);
            verdict = t++ >= cap ? CAPPED : screen(k, mean, fac, zj, lo, hi, scale);
        } while (verdict == OUTSIDE);
        flag[j] = (int8_t)verdict;
        tries[r] = t;
        pcg64_save(&g, words + 4 * r);
    }
}
