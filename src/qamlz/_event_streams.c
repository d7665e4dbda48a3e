/* The event streams of qamlz.dataset: event i of a sample drawn at `seed`
 * draws only from numpy's default_rng((seed, i)), a PCG64 generator. Here
 * each stream is four uint64 words, (state hi, state lo, inc hi, inc lo):
 * stream_seed computes them for a run of indices; stream_head draws each
 * event's class and process uniforms from them and stream_normals its
 * blocks of Gaussian attempts, and both save them again.
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

/* count standard normals from each stream words[rows[j]], j < m, into
 * z[j * count ...]. */
void stream_normals(uint64_t *restrict words, const int64_t *restrict rows, long m,
                    double *restrict z, long count)
{
    for (long j = 0; j < m; j++) {
        pcg64_t g = pcg64_load(words + 4 * rows[j]);
        bitgen_t b = bitgen_of(&g);
        for (long c = 0; c < count; c++)
            z[j * count + c] = random_standard_normal(&b);
        pcg64_save(&g, words + 4 * rows[j]);
    }
}
