/* Send-on-delta scan over one segment; see sampler.sample_event_based.
 *
 * Keeps the reference loop's order of floating-point operations exactly:
 * book the previous sample's held energy, then test power delta, energy
 * and silence, in that priority (codes 1, 2, 3 index sampler.TRIGGERS).
 * silence == 0 disables the silence trigger; the unsigned subtraction is
 * exact for any increasing pair of int64 timestamps. Writes the index,
 * trigger code and energy of each fired reading, then the final flush
 * energy after them, and returns the number of fired readings.
 */
#include <math.h>
#include <stdint.h>

int64_t event_scan(const int64_t *ts, const double *pw, int64_t n, double dp,
                   double e_ws, uint64_t silence, int64_t *idx, uint8_t *code,
                   double *energy)
{
    int64_t count = 0, t_last = ts[0];
    double p_ref = pw[0], acc = 0.0;
    for (int64_t i = 1; i < n; i++) {
        uint8_t fired;
        acc += pw[i - 1];
        if (fabs(pw[i] - p_ref) >= dp)
            fired = 1;
        else if (acc >= e_ws)
            fired = 2;
        else if (silence && (uint64_t)ts[i] - (uint64_t)t_last >= silence)
            fired = 3;
        else
            continue;
        idx[count] = i;
        code[count] = fired;
        energy[count++] = acc;
        t_last = ts[i];
        p_ref = pw[i];
        acc = 0.0;
    }
    energy[count] = acc + pw[n - 1];
    return count;
}
