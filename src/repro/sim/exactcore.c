/* The exact tier's compiled core.
 *
 * A C twin of repro.sim.batchstep._ExactCore for plans made only of
 * healthy single-IO reads and healthy read-modify-writes: it replays
 * the event heap's (time, seq) serialization bit for bit, with the same
 * feed/finish protocol.  repro.sim.native builds this file on first use
 * (-O2 -shared -fPIC -ffp-contract=off, never -ffast-math: every float
 * operation must round exactly as the Python core's does) and drives
 * it through ctypes.
 *
 * State persisting across feeds: per-disk FIFOs of queued IOs, the
 * in-flight heap (a disk serves one IO at a time, so it never holds
 * more than v completions), the sequence counters, and a slab of
 * in-flight requests (arrival time, a write's data and parity units,
 * IOs outstanding in its current phase).  The caller validates every
 * input column before a call: disk ids lie in [0, v) and offsets are
 * non-negative.
 */

#include <stdint.h>
#include <stdlib.h>

enum { READ_FAST = 0, RMW_PHASE1 = 1, RMW_WRITE = 2 };

enum {
    XC_OK = 0,
    XC_NOMEM = -1,    /* an allocation failed */
    XC_OVERFLOW = -2, /* a sample buffer or a column ran out */
};

typedef struct {
    double t;    /* completion time */
    int64_t seq; /* the heap's tie-breaking sequence number */
    int64_t req; /* request slot */
    int32_t disk;
    int32_t action;
} Event;

typedef struct {
    double t; /* submission time */
    int64_t off;
    int64_t req;
    int32_t action;
} Queued;

typedef struct {
    Queued *buf;
    int64_t head, len, cap;
} Fifo;

typedef struct {
    double at; /* arrival time */
    int64_t d, off, pd, po;
    int32_t rem; /* IOs outstanding in the current phase */
} Req;

typedef struct {
    int64_t v;
    double seq_s, avg_s, now;
    int64_t seqc, pump_seq;
    Fifo *q;
    uint8_t *busy, *has_last;
    int64_t *last, *reads, *writes;
    double *busyt, *delay;
    Event *heap;
    int64_t hlen;
    Req *req;
    int64_t *free_slots;
    int64_t nfree, used, cap;
} Core;

void xc_free(Core *S)
{
    if (!S)
        return;
    if (S->q)
        for (int64_t d = 0; d < S->v; d++)
            free(S->q[d].buf);
    free(S->q);
    free(S->busy);
    free(S->has_last);
    free(S->last);
    free(S->reads);
    free(S->writes);
    free(S->busyt);
    free(S->delay);
    free(S->heap);
    free(S->req);
    free(S->free_slots);
    free(S);
}

Core *xc_new(int64_t v, double seq_s, double avg_s, double now,
             const int64_t *last, const uint8_t *has_last,
             const double *busyt, const double *delay)
{
    Core *S = calloc(1, sizeof *S);
    if (!S)
        return NULL;
    S->v = v;
    S->seq_s = seq_s;
    S->avg_s = avg_s;
    S->now = now;
    S->pump_seq = -1;
    size_t n = v > 0 ? (size_t)v : 1;
    S->q = calloc(n, sizeof *S->q);
    S->busy = calloc(n, 1);
    S->has_last = calloc(n, 1);
    S->last = calloc(n, sizeof *S->last);
    S->reads = calloc(n, sizeof *S->reads);
    S->writes = calloc(n, sizeof *S->writes);
    S->busyt = calloc(n, sizeof *S->busyt);
    S->delay = calloc(n, sizeof *S->delay);
    S->heap = calloc(n, sizeof *S->heap);
    if (!S->q || !S->busy || !S->has_last || !S->last || !S->reads ||
        !S->writes || !S->busyt || !S->delay || !S->heap) {
        xc_free(S);
        return NULL;
    }
    for (int64_t d = 0; d < v; d++) {
        S->last[d] = last[d];
        S->has_last[d] = has_last[d];
        S->busyt[d] = busyt[d];
        S->delay[d] = delay[d];
    }
    return S;
}

/* Disk.last_offset adjacency: a sequential access when |off - last| <= 1
 * (exact for non-negative offsets, without signed overflow). */
static inline double service(const Core *S, int64_t d, int64_t off)
{
    return S->has_last[d] &&
                   (uint64_t)off - (uint64_t)S->last[d] + 1u <= 2u
               ? S->seq_s
               : S->avg_s;
}

static inline int before(const Event *a, const Event *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static void heap_push(Core *S, Event e)
{
    int64_t i = S->hlen++;
    while (i) {
        int64_t p = (i - 1) >> 1;
        if (!before(&e, &S->heap[p]))
            break;
        S->heap[i] = S->heap[p];
        i = p;
    }
    S->heap[i] = e;
}

static Event heap_pop(Core *S)
{
    Event top = S->heap[0];
    int64_t n = --S->hlen;
    if (!n)
        return top;
    Event last = S->heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && before(&S->heap[c + 1], &S->heap[c]))
            c++;
        if (!before(&S->heap[c], &last))
            break;
        S->heap[i] = S->heap[c];
        i = c;
    }
    S->heap[i] = last;
    return top;
}

static int fifo_push(Fifo *f, double t, int64_t off, int64_t req,
                     int32_t action)
{
    if (f->len == f->cap) {
        int64_t cap = f->cap ? 2 * f->cap : 16;
        Queued *b = malloc((size_t)cap * sizeof *b);
        if (!b)
            return XC_NOMEM;
        for (int64_t i = 0; i < f->len; i++)
            b[i] = f->buf[(f->head + i) % f->cap];
        free(f->buf);
        f->buf = b;
        f->head = 0;
        f->cap = cap;
    }
    Queued *e = &f->buf[(f->head + f->len) % f->cap];
    e->t = t;
    e->off = off;
    e->req = req;
    e->action = action;
    f->len++;
    return XC_OK;
}

static int64_t slot_new(Core *S)
{
    if (S->nfree)
        return S->free_slots[--S->nfree];
    if (S->used == S->cap) {
        int64_t cap = S->cap ? 2 * S->cap : 1024;
        Req *r = realloc(S->req, (size_t)cap * sizeof *r);
        if (!r)
            return -1;
        S->req = r;
        int64_t *f = realloc(S->free_slots, (size_t)cap * sizeof *f);
        if (!f)
            return -1;
        S->free_slots = f;
        S->cap = cap;
    }
    return S->used++;
}

/* Disk.submit: queue on a busy disk, start service inline on an idle
 * one (the completion takes the next sequence number). */
static int submit(Core *S, int64_t d, int64_t off, int32_t action,
                  int64_t req, double now)
{
    if (S->busy[d])
        return fifo_push(&S->q[d], now, off, req, action);
    if (S->hlen >= S->v)
        return XC_OVERFLOW;
    S->busy[d] = 1;
    double s = service(S, d, off);
    S->last[d] = off;
    S->has_last[d] = 1;
    S->busyt[d] += s;
    Event e = {now + s, S->seqc++, req, (int32_t)d, action};
    heap_push(S, e);
    return XC_OK;
}

/* Replay one window's n arrivals (times at, read flags isr, data units
 * d/off; the writes' data and parity units wd/wo/wpd/wpo, nw of them,
 * in arrival order) up to and including the last arrival epoch, which
 * stays open for the next feed.  n == 0 ends the stream: everything in
 * flight retires.  Completed requests' latencies and completion times
 * land in rlat/rcomp (reads) and wlat/wcomp (writes) in completion-
 * event order; counts receives how many of each. */
int xc_feed(Core *S, int64_t n, const double *at, const uint8_t *isr,
            const int64_t *d, const int64_t *off, int64_t nw,
            const int64_t *wd, const int64_t *wo, const int64_t *wpd,
            const int64_t *wpo, double *rlat, double *rcomp, int64_t rcap,
            double *wlat, double *wcomp, int64_t wcap, int64_t *counts)
{
    int64_t ai = 0, wi = 0, nr = 0, nwr = 0;
    double now = S->now;
    int rc = XC_OK;
    if (S->pump_seq < 0 && n && at[0] != now)
        /* The held-open epoch does not continue here: the pump re-arms
         * after its submissions. */
        S->pump_seq = S->seqc++;
    for (;;) {
        int arrival;
        double a = 0.0;
        if (S->hlen) {
            const Event *top = &S->heap[0];
            if (ai < n) {
                a = at[ai];
                arrival = a < top->t ||
                          (a == top->t && S->pump_seq < top->seq);
            } else {
                arrival = 0;
            }
        } else if (ai < n) {
            a = at[ai];
            arrival = 1;
        } else {
            break;
        }
        if (arrival) {
            /* Arrival epoch: submit every request sharing this arrival
             * time, in stream order. */
            now = a;
            while (ai < n && at[ai] == a) {
                int64_t r = ai++;
                int64_t slot = slot_new(S);
                if (slot < 0) {
                    rc = XC_NOMEM;
                    goto out;
                }
                Req *q = &S->req[slot];
                q->at = a;
                if (isr[r]) {
                    rc = submit(S, d[r], off[r], READ_FAST, slot, a);
                } else {
                    if (wi >= nw) {
                        rc = XC_OVERFLOW;
                        goto out;
                    }
                    q->d = wd[wi];
                    q->off = wo[wi];
                    q->pd = wpd[wi];
                    q->po = wpo[wi];
                    q->rem = 2;
                    wi++;
                    /* RMW phase 1: read old data, then old parity. */
                    rc = submit(S, q->d, q->off, RMW_PHASE1, slot, a);
                    if (rc == XC_OK)
                        rc = submit(S, q->pd, q->po, RMW_PHASE1, slot, a);
                }
                if (rc != XC_OK)
                    goto out;
            }
            if (ai < n) {
                /* The pump re-arms for the next epoch after this
                 * epoch's submissions. */
                S->pump_seq = S->seqc++;
                continue;
            }
            /* The window's last epoch: hold it open. */
            S->pump_seq = -1;
            break;
        }

        Event e = heap_pop(S);
        double t = e.t;
        int64_t dk = e.disk;
        Req *q = &S->req[e.req];
        now = t;
        if (e.action == READ_FAST) {
            S->reads[dk]++;
            if (nr >= rcap) {
                rc = XC_OVERFLOW;
                goto out;
            }
            rlat[nr] = t - q->at;
            rcomp[nr] = t;
            nr++;
            S->free_slots[S->nfree++] = e.req;
        } else if (e.action == RMW_PHASE1) {
            S->reads[dk]++;
            if (!--q->rem) {
                /* Phase 2: write new data, then new parity. */
                q->rem = 2;
                rc = submit(S, q->d, q->off, RMW_WRITE, e.req, t);
                if (rc == XC_OK)
                    rc = submit(S, q->pd, q->po, RMW_WRITE, e.req, t);
                if (rc != XC_OK)
                    goto out;
            }
        } else {
            S->writes[dk]++;
            if (!--q->rem) {
                if (nwr >= wcap) {
                    rc = XC_OVERFLOW;
                    goto out;
                }
                wlat[nwr] = t - q->at;
                wcomp[nwr] = t;
                nwr++;
                S->free_slots[S->nfree++] = e.req;
            }
        }
        /* Start the disk's next queued IO (Disk._start_next). */
        Fifo *f = &S->q[dk];
        if (f->len) {
            Queued qe = f->buf[f->head];
            f->head = (f->head + 1) % f->cap;
            f->len--;
            double s = service(S, dk, qe.off);
            S->last[dk] = qe.off;
            S->has_last[dk] = 1;
            S->busyt[dk] += s;
            S->delay[dk] += t - qe.t;
            Event ne = {t + s, S->seqc++, qe.req, (int32_t)dk, qe.action};
            heap_push(S, ne);
        } else {
            S->busy[dk] = 0;
        }
    }
out:
    S->now = now;
    counts[0] = nr;
    counts[1] = nwr;
    return rc;
}

/* Copy the per-disk accumulators, last offsets and the clock out. */
void xc_state(const Core *S, double *busyt, double *delay, int64_t *reads,
              int64_t *writes, int64_t *last, uint8_t *has_last, double *now)
{
    for (int64_t d = 0; d < S->v; d++) {
        busyt[d] = S->busyt[d];
        delay[d] = S->delay[d];
        reads[d] = S->reads[d];
        writes[d] = S->writes[d];
        last[d] = S->last[d];
        has_last[d] = S->has_last[d];
    }
    *now = S->now;
}
