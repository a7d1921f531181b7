/* Native scoring kernels for LangIdModel and PerplexityModel.
 *
 * Each function scores a whole Arrow string batch in one pass: row i is
 * the bytes data[off[i] .. off[i+1]) cut to its first `clip` bytes. The
 * results are bit-identical to the numpy reference kernels
 * (LangIdModel._scores_segments, PerplexityModel._score_segments), which
 * reduce each document's terms with np.add.reduceat: the first term
 * plus numpy's pairwise sum of the rest. pairwise_f64 and pairwise_cols
 * copy that sum's order (8 accumulators, blocks of up to PW_BLOCKSIZE
 * terms, a halving split above it), so the C compiler must not contract
 * or reassociate: build with -ffp-contract=off and without -ffast-math
 * or -march=native.
 *
 * No static state: the workspace is allocated per call, so concurrent
 * calls from several threads are safe. Each function returns 0, or -1
 * when the workspace cannot be allocated.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define PW_BLOCKSIZE 128

/* numpy's DOUBLE_pairwise_sum over a[0 .. n). */
static double pairwise_f64(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                r[j] += a[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_f64(a, n2) + pairwise_f64(a + n2, n - n2);
}

/* numpy's FLOAT_pairwise_sum, run for all L columns at once over the
 * terms i = 0 .. n - 1 of a document: term (i, l) is
 * profiles_t[bucket[i] * L + l] * count[i], a float32 product, as the
 * reference gathers it. Writes the L column sums to res; scratch holds
 * 8 * L floats plus L per halving level. */
static void pairwise_cols(const float *profiles_t, int64_t L, const uint16_t *bucket,
                          const float *count, int64_t n, float *res, float *scratch)
{
    if (n < 8) {
        for (int64_t l = 0; l < L; l++) {
            res[l] = 0.f;
        }
        for (int64_t i = 0; i < n; i++) {
            const float *p = profiles_t + (int64_t)bucket[i] * L;
            for (int64_t l = 0; l < L; l++) {
                res[l] += p[l] * count[i];
            }
        }
        return;
    }
    if (n <= PW_BLOCKSIZE) {
        float *r = scratch; /* r[j * L + l]: accumulator j of column l */
        int64_t i;
        for (int j = 0; j < 8; j++) {
            const float *p = profiles_t + (int64_t)bucket[j] * L;
            for (int64_t l = 0; l < L; l++) {
                r[j * L + l] = p[l] * count[j];
            }
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                const float *p = profiles_t + (int64_t)bucket[i + j] * L;
                for (int64_t l = 0; l < L; l++) {
                    r[j * L + l] += p[l] * count[i + j];
                }
            }
        }
        for (int64_t l = 0; l < L; l++) {
            res[l] = ((r[l] + r[L + l]) + (r[2 * L + l] + r[3 * L + l])) +
                     ((r[4 * L + l] + r[5 * L + l]) + (r[6 * L + l] + r[7 * L + l]));
        }
        for (; i < n; i++) {
            const float *p = profiles_t + (int64_t)bucket[i] * L;
            for (int64_t l = 0; l < L; l++) {
                res[l] += p[l] * count[i];
            }
        }
        return;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    float *right = scratch;
    pairwise_cols(profiles_t, L, bucket, count, n2, res, scratch + L);
    pairwise_cols(profiles_t, L, bucket + n2, count + n2, n - n2, right, scratch + L);
    for (int64_t l = 0; l < L; l++) {
        res[l] += right[l];
    }
}

/* LangIdModel cosine scores: out[i * L + l] for row i and language l.
 * The hashed byte trigrams of a row are counted per bucket; the buckets
 * it hits are then visited in ascending order (a 65536-bit bitmap and a
 * 1024-bit summary of its nonzero words), as the reference's sorted
 * (row, bucket) key visits them. Counts fit uint16: a row has at most
 * clip - 2 windows. A row with no window scores 0. */
int langid_scores(const uint8_t *data, const int64_t *off, int64_t n, int64_t clip,
                  const float *profiles_t, int64_t L, float *out)
{
    int64_t maxwin = clip > 2 ? clip - 2 : 0;
    uint16_t *cnt = calloc(65536, sizeof(uint16_t));
    uint64_t *bits = calloc(1024, sizeof(uint64_t));
    uint16_t *bucket = malloc((maxwin + 1) * sizeof(uint16_t));
    float *count = malloc((maxwin + 1) * sizeof(float));
    double *sq = malloc((maxwin + 1) * sizeof(double));
    /* pairwise_cols' scratch (8 accumulators + up to 64 halving levels),
     * then num and rest */
    float *scratch = malloc((8 + 64 + 2) * L * sizeof(float));
    int rc = -1;
    if (!cnt || !bits || !bucket || !count || !sq || !scratch) {
        goto done;
    }
    float *num = scratch + (8 + 64) * L;
    float *rest = num + L;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *s = data + off[i];
        int64_t len = off[i + 1] - off[i];
        float *o = out + i * L;
        if (len > clip) {
            len = clip;
        }
        for (int64_t l = 0; l < L; l++) {
            o[l] = 0.f;
        }
        if (len < 3) {
            continue;
        }
        uint64_t summary[16] = {0};
        uint32_t h = ((uint32_t)s[0] << 8) | s[1];
        for (int64_t p = 2; p < len; p++) {
            h = ((h << 8) | s[p]) & 0xFFFFFFu;
            uint32_t b = (h * 2654435761u) & 0xFFFFu;
            /* unconditional bit sets: a "first hit" branch mispredicts
             * on about every other window */
            cnt[b]++;
            bits[b >> 6] |= (uint64_t)1 << (b & 63);
            summary[b >> 12] |= (uint64_t)1 << ((b >> 6) & 63);
        }
        int64_t k = 0;
        for (int t = 0; t < 16; t++) {
            for (uint64_t ws = summary[t]; ws; ws &= ws - 1) {
                int w = t * 64 + __builtin_ctzll(ws);
                for (uint64_t bw = bits[w]; bw; bw &= bw - 1) {
                    uint32_t b = (uint32_t)w * 64 + (uint32_t)__builtin_ctzll(bw);
                    uint16_t c = cnt[b];
                    cnt[b] = 0;
                    bucket[k] = (uint16_t)b;
                    count[k] = (float)c;
                    sq[k] = (double)((int64_t)c * c);
                    k++;
                }
                bits[w] = 0;
            }
        }
        /* first term plus the pairwise sum of the rest, as reduceat */
        const float *p0 = profiles_t + (int64_t)bucket[0] * L;
        for (int64_t l = 0; l < L; l++) {
            num[l] = p0[l] * count[0];
        }
        double norm_sq = sq[0];
        if (k > 1) {
            pairwise_cols(profiles_t, L, bucket + 1, count + 1, k - 1, rest, scratch);
            for (int64_t l = 0; l < L; l++) {
                num[l] += rest[l];
            }
            norm_sq += pairwise_f64(sq + 1, k - 1);
        }
        double norm = sqrt(norm_sq);
        for (int64_t l = 0; l < L; l++) {
            o[l] = (float)((double)num[l] / norm);
        }
    }
    rc = 0;
done:
    free(cnt);
    free(bits);
    free(bucket);
    free(count);
    free(sq);
    free(scratch);
    return rc;
}

/* PerplexityModel log-probability sums: out[i] is the sum of
 * logp[(fold[b0] * 64 + fold[b1]) * 64 + fold[b2]] (as float64) over the
 * byte trigrams (b0, b1, b2) of row i, or 0 for a row with no trigram. */
int ppl_sums(const uint8_t *data, const int64_t *off, int64_t n, int64_t clip,
             const int32_t *fold, const float *logp, double *out)
{
    int64_t maxwin = clip > 2 ? clip - 2 : 0;
    double *lp = malloc((maxwin + 1) * sizeof(double));
    if (!lp) {
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *s = data + off[i];
        int64_t len = off[i + 1] - off[i];
        if (len > clip) {
            len = clip;
        }
        if (len < 3) {
            out[i] = 0.;
            continue;
        }
        int64_t nwin = len - 2;
        int32_t c0 = fold[s[0]], c1 = fold[s[1]];
        for (int64_t p = 0; p < nwin; p++) {
            int32_t c2 = fold[s[p + 2]];
            lp[p] = (double)logp[(c0 * 64 + c1) * 64 + c2];
            c0 = c1;
            c1 = c2;
        }
        out[i] = nwin > 1 ? lp[0] + pairwise_f64(lp + 1, nwin - 1) : lp[0];
    }
    free(lp);
    return 0;
}
