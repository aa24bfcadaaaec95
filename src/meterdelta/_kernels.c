/* The package's compiled kernels, built and loaded by _kernels.py. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Send-on-delta scan over one segment; see sampler.sample_event_based.
 *
 * Keeps the reference loop's order of floating-point operations exactly:
 * book the previous sample's held energy, then test power delta, energy and
 * silence against the last row, in that priority (codes 1, 2, 3; each code
 * indexes sampler.TRIGGERS). silence == 0 disables the silence trigger; the
 * unsigned subtraction is exact for any increasing pair of int64 timestamps.
 * The last row's power, which no column keeps, is held in ref. Writes the
 * stream's three columns whole and returns its row count, at most n + 1: the
 * baseline, each fired reading and the final flush at ts[n - 1] + 1 <= 2**63 - 1.
 */
int64_t event_scan(const int64_t *ts, const double *pw, int64_t n, double dp,
                   double e_ws, uint64_t silence, int64_t *stamp, uint8_t *code,
                   double *energy)
{
    int64_t rows = 1;
    double acc = 0.0, ref = pw[0];
    stamp[0] = ts[0];
    code[0] = 0;
    energy[0] = 0.0;
    for (int64_t i = 1; i < n; i++) {
        uint8_t fired;
        acc += pw[i - 1];
        if (fabs(pw[i] - ref) >= dp)
            fired = 1;
        else if (acc >= e_ws)
            fired = 2;
        else if (silence && (uint64_t)ts[i] - (uint64_t)stamp[rows - 1] >= silence)
            fired = 3;
        else
            continue;
        stamp[rows] = ts[i];
        code[rows] = fired;
        energy[rows++] = acc;
        ref = pw[i];
        acc = 0.0;
    }
    stamp[rows] = ts[n - 1] + 1;
    code[rows] = 5;
    energy[rows] = acc + pw[n - 1];
    return rows + 1;
}

/* A segment's samples walked against a stream's reading intervals: interval k
 * holds power[k] from stamps[k] to stamps[k + 1].
 */
typedef struct {
    const int64_t *ts, *stamps;
    const double *pw, *power;
    int64_t k;
} held_walk;

/* Writes |pw[j + i] - power[k]| to e[i] for the n samples from j on, each against
 * the interval k that holds it; j must not fall from one call to the next.
 */
static void held_errors(held_walk *w, int64_t j, int64_t n, double *e)
{
    const int64_t *ts = w->ts + j;
    const double *pw = w->pw + j;
    for (int64_t i = 0; i < n;) {
        while (w->stamps[w->k + 1] <= ts[i])
            w->k++;
        int64_t end = w->stamps[w->k + 1];
        double power = w->power[w->k];
        /* whole groups of 8 first: a loop of fixed length, which cc vectorizes at -O2 */
        for (; i + 8 <= n && ts[i + 7] < end; i += 8)
            for (int u = 0; u < 8; u++)
                e[i + u] = fabs(pw[i + u] - power);
        for (; i < n && ts[i] < end; i++)
            e[i] = fabs(pw[i] - power);
    }
}

/* The errors of samples j .. j + n - 1 summed in numpy's pairwise_sum order:
 * leaves of at most 128 samples on 8 accumulators, split at half the length
 * rounded down to a multiple of 8.
 */
static double pairwise_error_sum(held_walk *w, int64_t j, int64_t n)
{
    if (n > 128) {
        int64_t half = n / 2;
        half -= half % 8;
        return pairwise_error_sum(w, j, half) + pairwise_error_sum(w, j + half, n - half);
    }
    double e[128], sum = 0.0;
    int64_t i = 0;
    held_errors(w, j, n, e);
    if (n >= 8) {
        double r[8];
        for (int u = 0; u < 8; u++)
            r[u] = e[u];
        for (i = 8; i < n - n % 8; i += 8)
            for (int u = 0; u < 8; u++)
                r[u] += e[i + u];
        sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        sum += e[i];
    return sum;
}

/* Sum of the absolute errors of one segment (n samples at ts, powers pw)
 * against a stream's held powers; see evaluate._pooled_score. The readings at
 * stamps tile the segment: stamps[0] == ts[0], the last is ts[n - 1] + 1, and
 * power[k] holds from stamps[k] to stamps[k + 1]. Bit-equal to np.sum of the
 * errors, which adds numpy's pairwise sum to a 0.0.
 */
double held_error_sum(const int64_t *ts, const double *pw, int64_t n, const int64_t *stamps,
                      const double *power)
{
    held_walk w = {ts, stamps, pw, power, 0};
    return 0.0 + pairwise_error_sum(&w, 0, n);
}

/* One row of a trace: the layout of trace.SAMPLE_DTYPE. */
typedef struct {
    int64_t timestamp;
    double power;
} sample;

/* Every power of ten that is an exact double. */
static const double POW10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                               1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                               1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int blank(char c) { return c == ' ' || c == '\t'; }

static int digit(char c) { return c >= '0' && c <= '9'; }

/* The line after the end of line at p, or NULL if p holds none. */
static const char *next_line(const char *p)
{
    if (*p == '\r')
        p++;
    return *p == '\n' ? p + 1 : NULL;
}

/* Channel-file scan over text of whole lines; see ingest.load_redd_channel.
 *
 * Each line ends in "\n" or "\r\n" and holds only spaces and tabs, or the
 * fields "<timestamp> <power>" separated and surrounded by spaces and tabs:
 * the timestamp [+-]?digits within int64, the power
 * [+-]?(digits[.digits]|.digits)([eE][+-]?digits)?. A power of at most 15
 * significant and 22 fraction digits without exponent is one correctly
 * rounded division of two exact doubles; any other goes to strtod, kept
 * only if strtod read the whole field (in a locale whose decimal point is
 * not '.', it stops early) and found it finite. Writes each line's fields
 * to out and returns the number of rows written, or -1 at the first line
 * outside this form or when out would need more than room rows.
 */
int64_t scan_channel(const char *text, int64_t len, sample *out, int64_t room)
{
    const char *p = text, *end = text + len;
    int64_t rows = 0;
    /* a final '\n' stops every loop below inside text */
    if (len < 1 || text[len - 1] != '\n')
        return -1;
    while (p < end) {
        while (blank(*p))
            p++;
        const char *next = next_line(p);
        if (next) {
            p = next;
            continue;
        }
        if (rows == room)
            return -1;

        int negative = *p == '-';
        if (*p == '-' || *p == '+')
            p++;
        if (!digit(*p))
            return -1;
        uint64_t t = 0, limit = negative ? (uint64_t)INT64_MAX + 1 : INT64_MAX;
        for (; digit(*p); p++) {
            uint64_t d = (uint64_t)(*p - '0');
            if (t > (limit - d) / 10)
                return -1;
            t = t * 10 + d;
        }
        if (!blank(*p))
            return -1;
        /* -(2^63) is -(2^63 - 1) - 1, as 2^63 is no int64 */
        out[rows].timestamp = !negative ? (int64_t)t : t ? -(int64_t)(t - 1) - 1 : 0;
        while (blank(*p))
            p++;

        const char *field = p;
        negative = *p == '-';
        if (*p == '-' || *p == '+')
            p++;
        uint64_t mantissa = 0;
        int64_t significant = 0, whole = 0, fraction = 0;
        int exponent = 0;
        for (; digit(*p); p++, whole++)
            if ((significant || *p != '0') && ++significant <= 15)
                mantissa = mantissa * 10 + (uint64_t)(*p - '0');
        if (*p == '.') {
            for (p++; digit(*p); p++, fraction++)
                if ((significant || *p != '0') && ++significant <= 15)
                    mantissa = mantissa * 10 + (uint64_t)(*p - '0');
            if (!fraction)
                return -1;
        }
        if (!whole && !fraction)
            return -1;
        if (*p == 'e' || *p == 'E') {
            exponent = 1;
            p++;
            if (*p == '-' || *p == '+')
                p++;
            if (!digit(*p))
                return -1;
            while (digit(*p))
                p++;
        }
        const char *field_end = p;
        while (blank(*p))
            p++;
        next = next_line(p);
        if (!next)
            return -1;

        double power;
        if (!exponent && significant <= 15 && fraction <= 22) {
            power = (double)mantissa / POW10[fraction];
            if (negative)
                power = -power;
        } else {
            char *used;
            power = strtod(field, &used);
            if (used != field_end || !isfinite(power))
                return -1;
        }
        out[rows++].power = power;
        p = next;
    }
    return rows;
}

/* One mains leg read by timestamp, each timestamp once. Its in-order rows (each above every
 * timestamp before it in the file) come in file order; its displaced rows (all others) come
 * from a list of row indices in timestamp order, one per timestamp. A displaced row replaces
 * the in-order row of its timestamp, which always comes earlier in the file.
 */
typedef struct {
    const sample *rows;
    int64_t n;
    const int64_t *displaced;
    int64_t nd;
    int64_t i, k, read; /* the next in-order row (n: none left), the next displaced, rows read */
} leg_reader;

/* Moves i on to the next in-order row: the first after i above row i's timestamp. */
static void next_in_order(leg_reader *g)
{
    int64_t top = g->rows[g->i].timestamp;
    while (++g->i < g->n && g->rows[g->i].timestamp <= top)
        ;
}

/* Reads the leg's next row into s and returns 1, or returns 0 when none is left. Inline:
 * cc -O2 left it a call, and the merge took twice as long on shuffled legs.
 */
static inline int read_row(leg_reader *g, sample *s)
{
    int in_order = g->i < g->n;
    if (g->k < g->nd &&
        (!in_order || g->rows[g->displaced[g->k]].timestamp <= g->rows[g->i].timestamp)) {
        *s = g->rows[g->displaced[g->k++]];
        if (in_order && s->timestamp == g->rows[g->i].timestamp)
            next_in_order(g);
    } else if (in_order) {
        *s = g->rows[g->i];
        next_in_order(g);
    } else {
        return 0;
    }
    g->read++;
    return 1;
}

/* The two mains legs merged on their common timestamps; see ingest.combine_mains.
 *
 * Each leg is read as a leg_reader: leg a from its na rows and the indices da of its nda
 * displaced rows, b likewise. Writes each common timestamp to out (which overlaps neither
 * leg) with the power 0.0 + a + b, the same in either order, and each leg's count of
 * distinct timestamps to distinct[0] and distinct[1]; returns the rows written,
 * <= min(na, nb).
 */
int64_t merge_legs(const sample *a, int64_t na, const int64_t *da, int64_t nda, const sample *b,
                   int64_t nb, const int64_t *db, int64_t ndb, sample *out, int64_t *distinct)
{
    leg_reader ga = {a, na, da, nda, 0, 0, 0}, gb = {b, nb, db, ndb, 0, 0, 0};
    sample x, y;
    int64_t rows = 0;
    int more_a = read_row(&ga, &x), more_b = read_row(&gb, &y);
    while (more_a && more_b) {
        if (x.timestamp < y.timestamp) {
            more_a = read_row(&ga, &x);
        } else if (x.timestamp > y.timestamp) {
            more_b = read_row(&gb, &y);
        } else {
            out[rows].timestamp = x.timestamp;
            out[rows++].power = 0.0 + x.power + y.power;
            more_a = read_row(&ga, &x);
            more_b = read_row(&gb, &y);
        }
    }
    while (more_a) /* to the end of each leg, for its count */
        more_a = read_row(&ga, &x);
    while (more_b)
        more_b = read_row(&gb, &y);
    distinct[0] = ga.read;
    distinct[1] = gb.read;
    return rows;
}
