/* numpy's PCG64 bit generator, included by the compiled loops that draw
 * from it: the SA sweep (_sa_sweep.c) and the event streams
 * (_event_streams.c). A generator is held as four uint64 words, (state hi,
 * state lo, inc hi, inc lo), the two 128-bit integers of
 * Generator.bit_generator.state. Every function is static inline, so that
 * each file inlines its own copy: a function shared between the files of
 * the library would be a call per draw, through the PLT under -fPIC.
 */
#ifndef QAMLZ_PCG64_H
#define QAMLZ_PCG64_H

#include <stdint.h>

typedef unsigned __int128 u128;

/* PCG64's multiplier, PCG_DEFAULT_MULTIPLIER_128 */
#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

typedef struct {
    u128 state, inc;
} pcg64_t;

/* the LCG step of pcg_setseq_128 */
static inline void pcg64_step(pcg64_t *g)
{
    g->state = g->state * PCG_MULT + g->inc;
}

/* the XSL-RR output of a state */
static inline uint64_t pcg64_output(u128 state)
{
    uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* pcg_setseq_128_xsl_rr_64_random_r: step, then the XSL-RR output */
static inline uint64_t pcg64_next(pcg64_t *g)
{
    pcg64_step(g);
    return pcg64_output(g->state);
}

/* Generator.random() of one output: its top 53 bits, scaled into [0, 1) */
static inline double pcg64_double(uint64_t x)
{
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

static inline double pcg64_next_double(pcg64_t *g)
{
    return pcg64_double(pcg64_next(g));
}

/* The LCG's jumps of 1 to 4 steps: state k + j is mult[j - 1] * (state k) +
 * add[j - 1], with mult[j - 1] = a^j and add[j - 1] = inc * (a^(j - 1) +
 * ... + a + 1) for the multiplier a, all mod 2^128. */
typedef struct {
    u128 mult[4], add[4];
} pcg64_jumps_t;

static inline pcg64_jumps_t pcg64_jumps(const pcg64_t *g)
{
    pcg64_jumps_t jumps;
    u128 mult = PCG_MULT, add = g->inc;
    for (int j = 0; j < 4; j++) {
        jumps.mult[j] = mult;
        jumps.add[j] = add;
        mult *= PCG_MULT;
        add = add * PCG_MULT + g->inc;
    }
    return jumps;
}

/* Generator.random(count) into u. Each group of four states is computed
 * from the state before it, so the four 128-bit products are independent
 * and overlap, where one step after another waits for each product in turn;
 * the states, and so the doubles and the generator left behind, are those
 * of pcg64_next_double count times. jumps is pcg64_jumps(g). */
static inline void pcg64_fill(pcg64_t *g, const pcg64_jumps_t *jumps, double *u, long count)
{
    long r = 0;
    for (; r + 4 <= count; r += 4) {
        u128 state = g->state;
        for (int j = 0; j < 4; j++) {
            g->state = jumps->mult[j] * state + jumps->add[j];
            u[r + j] = pcg64_double(pcg64_output(g->state));
        }
    }
    for (; r < count; r++)
        u[r] = pcg64_next_double(g);
}

static inline pcg64_t pcg64_load(const uint64_t *w)
{
    pcg64_t g = {((u128)w[0] << 64) | w[1], ((u128)w[2] << 64) | w[3]};
    return g;
}

static inline void pcg64_save(const pcg64_t *g, uint64_t *w)
{
    w[0] = (uint64_t)(g->state >> 64);
    w[1] = (uint64_t)g->state;
    w[2] = (uint64_t)(g->inc >> 64);
    w[3] = (uint64_t)g->inc;
}

#endif
