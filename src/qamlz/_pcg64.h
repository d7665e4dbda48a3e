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

/* pcg_setseq_128_xsl_rr_64_random_r: step, then the XSL-RR output */
static inline uint64_t pcg64_next(pcg64_t *g)
{
    pcg64_step(g);
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* Generator.random(): the top 53 bits of one output, scaled into [0, 1) */
static inline double pcg64_next_double(pcg64_t *g)
{
    return (double)(pcg64_next(g) >> 11) * (1.0 / 9007199254740992.0);
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
