/*
 * Single-pass kernels for linked VectorPrograms (see repro.arch.native).
 *
 * A linked program is a flat int32 array of 5-word instructions
 * (opcode, dst, a, b, c).  A register operand is a slot index >= 0; a
 * negative operand -k-1 names input column k.  slot_out[s] names the
 * output matrix slot s lives in, or is -1 for a per-block scratch
 * slot.  Every instruction computes one logical micro-op per 64-bit
 * word, reading all operands of a word before writing it, so a
 * destination may alias an operand.
 *
 * The word range is walked in blocks: each block runs the whole
 * instruction stream, so intermediates stay in cache-sized scratch
 * instead of streaming full matrices per micro-op.
 *
 * The linker (repro.arch.native.link) validates every opcode and slot
 * index; this file trusts its input and does no checking of its own.
 */
#include <stdint.h>

enum {
    OP_AND, OP_ANDN, OP_NOR, OP_XOR, OP_MAJ, OP_NOT, OP_COPY, OP_CONST,
    OP_OR, OP_NAND, OP_XNOR, OP_ORNOT, OP_ANDOR, OP_NOROR
};

#define MAP1(expr)                                          \
    for (int64_t i = 0; i < n; i++) {                       \
        uint64_t x = A[i];                                  \
        D[i] = (expr);                                      \
    }
#define MAP2(expr)                                          \
    for (int64_t i = 0; i < n; i++) {                       \
        uint64_t x = A[i], y = B[i];                        \
        D[i] = (expr);                                      \
    }
#define MAP3(expr)                                          \
    for (int64_t i = 0; i < n; i++) {                       \
        uint64_t x = A[i], y = B[i], z = C[i];              \
        D[i] = (expr);                                      \
    }

static inline const uint64_t *operand(int32_t v, uint64_t *const *regs,
                                      const uint64_t *const *cols,
                                      int64_t at)
{
    return v >= 0 ? regs[v] : cols[-(int64_t)v - 1] + at;
}

/* x86-64 glibc builds carry an AVX2 clone picked at load time (an
 * ifunc); the build itself never assumes the host's instruction set. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) \
    && !defined(__clang__)
#define KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define KERNEL_CLONES
#endif

/*
 * Run n_code instructions over n_words words.
 *   cols : input base pointers (each n_words long)
 *   outs : output base pointers (each n_words long)
 *   work : n_slots * (block + 1) words owned by the calling thread:
 *          the slot pointer table, then the scratch blocks
 */
KERNEL_CLONES
void repro_run(const int32_t *code, int64_t n_code,
               const int32_t *slot_out, int64_t n_slots,
               const uint64_t *const *cols, uint64_t *const *outs,
               uint64_t *work, int64_t n_words, int64_t block)
{
    uint64_t **regs = (uint64_t **)work;
    uint64_t *scratch = work + n_slots;
    for (int64_t at = 0; at < n_words; at += block) {
        const int64_t n = n_words - at < block ? n_words - at : block;
        for (int64_t s = 0; s < n_slots; s++)
            regs[s] = slot_out[s] >= 0 ? outs[slot_out[s]] + at
                                       : scratch + s * block;
        for (int64_t pc = 0; pc < n_code; pc++) {
            const int32_t *ins = code + 5 * pc;
            uint64_t *D = regs[ins[1]];
            const uint64_t *A, *B, *C;
            switch (ins[0]) {
            case OP_CONST: {
                const uint64_t fill = ins[2] ? ~(uint64_t)0 : 0;
                for (int64_t i = 0; i < n; i++)
                    D[i] = fill;
                continue;
            }
            case OP_NOT:
            case OP_COPY:
                A = operand(ins[2], regs, cols, at);
                if (ins[0] == OP_NOT) {
                    MAP1(~x)
                } else {
                    MAP1(x)
                }
                continue;
            case OP_MAJ:
            case OP_ANDOR:
            case OP_NOROR:
                A = operand(ins[2], regs, cols, at);
                B = operand(ins[3], regs, cols, at);
                C = operand(ins[4], regs, cols, at);
                if (ins[0] == OP_MAJ) {
                    MAP3((x & y) | ((x | y) & z))
                } else if (ins[0] == OP_ANDOR) {
                    MAP3((x | y) & z)
                } else {
                    MAP3(~(x | y | z))
                }
                continue;
            default:
                break;
            }
            A = operand(ins[2], regs, cols, at);
            B = operand(ins[3], regs, cols, at);
            switch (ins[0]) {
            case OP_AND:   MAP2(x & y)    break;
            case OP_ANDN:  MAP2(x & ~y)   break;
            case OP_NOR:   MAP2(~(x | y)) break;
            case OP_XOR:   MAP2(x ^ y)    break;
            case OP_OR:    MAP2(x | y)    break;
            case OP_NAND:  MAP2(~(x & y)) break;
            case OP_XNOR:  MAP2(~(x ^ y)) break;
            case OP_ORNOT: MAP2(x | ~y)   break;
            default:       break;
            }
        }
    }
}
