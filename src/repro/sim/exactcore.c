/* The compiled off-heap cores: the exact tier and the eager tier.
 *
 * Two C twins of repro.sim.batchstep's Python cores, each with its
 * twin's feed/finish protocol and the same float operations in the
 * same order, so the same bits:
 *
 * - the exact core (xc_*) twins _ExactCore on every plan a controller
 *   makes: single-IO reads and healthy read-modify-writes on fast
 *   paths, and generic plans — a kind code and one or two phases of
 *   IOs (degraded reads and writes, write-through writes) — after
 *   them; it replays the event heap's (time, seq) serialization;
 * - the eager core (xe_*) twins _EagerCore on healthy single-IO reads
 *   and read-modify-writes: it resolves each IO on its disk's FIFO at
 *   submission, keeps pending RMW phase 2s in a heap keyed (time,
 *   gating start, push count), and gives up (XE_TIE) at the first
 *   order-ambiguous tie.
 *
 * repro.sim.native builds this file on first use (-O2 -shared -fPIC
 * -ffp-contract=off, never -ffast-math: every float operation must
 * round exactly as the Python cores' do) and drives it through ctypes.
 *
 * Both cores begin with the per-disk state they share (Disks), so
 * xd_state reads either one.  The exact core also keeps per-disk FIFOs
 * of queued IOs, the in-flight heap (a disk serves one IO at a time, so
 * it never holds more than v completions), the sequence counters, and
 * a slab of in-flight requests (arrival time, a write's data and
 * parity units, IOs outstanding in its current phase, a generic plan's
 * kind and the size of its phase still to come), with that second
 * phase's IOs in a per-slot side slab, allocated once a feed carries
 * a generic plan.  The caller validates every input column before a
 * call: disk ids lie in [0, v) and offsets are non-negative.  The
 * kernel itself refuses (XC_OVERFLOW) a generic plan whose first phase
 * is empty, or whose phases outgrow gmax or the IO columns.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Completion actions; generic-plan IOs come last. */
enum {
    READ_FAST = 0,
    RMW_PHASE1 = 1,
    RMW_WRITE = 2,
    GENERIC_READ = 3,
    GENERIC_WRITE = 4,
};

/* Request classes, xc_feed's cls column (a read flag for healthy rmw
 * traces, which the eager core reads as one). */
enum { CLS_RMW = 0, CLS_READ = 1, CLS_GENERIC = 2 };

enum {
    XC_OK = 0,
    XE_TIE = 1,       /* the eager core met an order-ambiguous tie */
    XC_NOMEM = -1,    /* an allocation failed */
    XC_OVERFLOW = -2, /* a sample buffer or a column ran out */
};

typedef struct {
    int64_t v;
    double seq_s, avg_s;
    double clock; /* exact: the replay clock; eager: the last completion */
    uint8_t *has_last;
    int64_t *last, *reads, *writes;
    double *busyt, *delay;
} Disks;

static void disks_free(Disks *k)
{
    free(k->has_last);
    free(k->last);
    free(k->reads);
    free(k->writes);
    free(k->busyt);
    free(k->delay);
}

static int disks_init(Disks *k, int64_t v, double seq_s, double avg_s,
                      double clock, const int64_t *last,
                      const uint8_t *has_last, const double *busyt,
                      const double *delay)
{
    size_t n = v > 0 ? (size_t)v : 1;
    k->v = v;
    k->seq_s = seq_s;
    k->avg_s = avg_s;
    k->clock = clock;
    k->has_last = calloc(n, 1);
    k->last = calloc(n, sizeof *k->last);
    k->reads = calloc(n, sizeof *k->reads);
    k->writes = calloc(n, sizeof *k->writes);
    k->busyt = calloc(n, sizeof *k->busyt);
    k->delay = calloc(n, sizeof *k->delay);
    if (!k->has_last || !k->last || !k->reads || !k->writes || !k->busyt ||
        !k->delay)
        return XC_NOMEM;
    for (int64_t d = 0; d < v; d++) {
        k->last[d] = last[d];
        k->has_last[d] = has_last[d];
        k->busyt[d] = busyt[d];
        k->delay[d] = delay[d];
    }
    return XC_OK;
}

/* Disk.last_offset adjacency: a sequential access when |off - last| <= 1
 * (exact for non-negative offsets, without signed overflow). */
static inline double service(const Disks *k, int64_t d, int64_t off)
{
    return k->has_last[d] &&
                   (uint64_t)off - (uint64_t)k->last[d] + 1u <= 2u
               ? k->seq_s
               : k->avg_s;
}

/* Start serving an IO at offset off on disk d: its service time, with
 * the disk's last offset and busy time updated. */
static inline double serve(Disks *k, int64_t d, int64_t off)
{
    double s = service(k, d, off);
    k->last[d] = off;
    k->has_last[d] = 1;
    k->busyt[d] += s;
    return s;
}

/* Copy either core's per-disk accumulators, last offsets and clock out
 * (a core pointer is a pointer to its Disks, its first member). */
void xd_state(const Disks *k, double *busyt, double *delay, int64_t *reads,
              int64_t *writes, int64_t *last, uint8_t *has_last,
              double *clock)
{
    for (int64_t d = 0; d < k->v; d++) {
        busyt[d] = k->busyt[d];
        delay[d] = k->delay[d];
        reads[d] = k->reads[d];
        writes[d] = k->writes[d];
        last[d] = k->last[d];
        has_last[d] = k->has_last[d];
    }
    *clock = k->clock;
}

/* ------------------------------------------------------------------
 * The exact core
 * ------------------------------------------------------------------ */

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
    int32_t rem;  /* IOs outstanding in the current phase */
    int32_t next; /* a generic plan's second-phase IOs still to submit */
    int32_t kind; /* a generic plan's kind code */
} Req;

/* One IO of a generic plan's second phase, kept until its first phase
 * ends. */
typedef struct {
    int64_t d, off;
    int32_t action;
} Io;

typedef struct {
    Disks k; /* first, for xd_state; k.clock is the replay clock */
    int64_t seqc, pump_seq;
    Fifo *q;
    uint8_t *busy;
    Event *heap;
    int64_t hlen;
    Req *req;
    int64_t *free_slots;
    int64_t nfree, used, cap;
    Io *next_io; /* gmax second-phase IOs per slot; NULL until needed */
    int64_t gmax;
} Core;

void xc_free(Core *S)
{
    if (!S)
        return;
    if (S->q)
        for (int64_t d = 0; d < S->k.v; d++)
            free(S->q[d].buf);
    disks_free(&S->k);
    free(S->q);
    free(S->busy);
    free(S->heap);
    free(S->req);
    free(S->free_slots);
    free(S->next_io);
    free(S);
}

Core *xc_new(int64_t v, double seq_s, double avg_s, double now,
             const int64_t *last, const uint8_t *has_last,
             const double *busyt, const double *delay)
{
    Core *S = calloc(1, sizeof *S);
    if (!S)
        return NULL;
    S->pump_seq = -1;
    size_t n = v > 0 ? (size_t)v : 1;
    S->q = calloc(n, sizeof *S->q);
    S->busy = calloc(n, 1);
    S->heap = calloc(n, sizeof *S->heap);
    if (disks_init(&S->k, v, seq_s, avg_s, now, last, has_last, busyt,
                   delay) != XC_OK ||
        !S->q || !S->busy || !S->heap) {
        xc_free(S);
        return NULL;
    }
    return S;
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
        if (S->gmax) {
            Io *g = realloc(S->next_io,
                            (size_t)cap * (size_t)S->gmax * sizeof *g);
            if (!g)
                return -1;
            S->next_io = g;
        }
        S->cap = cap;
    }
    return S->used++;
}

/* Size the second-phase slab for gmax IOs per slot, once. */
static int next_io_init(Core *S, int64_t gmax)
{
    if (S->gmax)
        return XC_OK;
    if (gmax < 1)
        return XC_OVERFLOW;
    if (S->cap) {
        S->next_io =
            malloc((size_t)S->cap * (size_t)gmax * sizeof *S->next_io);
        if (!S->next_io)
            return XC_NOMEM;
    }
    S->gmax = gmax;
    return XC_OK;
}

/* Disk.submit: queue on a busy disk, start service inline on an idle
 * one (the completion takes the next sequence number). */
static int submit(Core *S, int64_t d, int64_t off, int32_t action,
                  int64_t req, double now)
{
    if (S->busy[d])
        return fifo_push(&S->q[d], now, off, req, action);
    if (S->hlen >= S->k.v)
        return XC_OVERFLOW;
    S->busy[d] = 1;
    double s = serve(&S->k, d, off);
    Event e = {now + s, S->seqc++, req, (int32_t)d, action};
    heap_push(S, e);
    return XC_OK;
}

/* Replay one window's n arrivals up to and including the last arrival
 * epoch, which stays open for the next feed.  n == 0 ends the stream:
 * everything in flight retires.  The columns, in arrival order: times
 * at, request classes cls (CLS_*), data units d/off; the fast writes'
 * data and parity units wd/wo/wpd/wpo, nw of them; the ng generic
 * plans' kind codes gkind and phase sizes gsz (two per plan, the
 * second 0 for a one-phase plan), and their nio IOs, phase by phase,
 * as disks gd, offsets go and write flags gw; gmax bounds a phase.
 * Completed requests' latencies and completion times land in
 * rlat/rcomp (reads), wlat/wcomp (fast writes) and glat/gcomp, kind
 * codes in gk (generic plans), each in completion-event order; counts
 * receives how many of each. */
int xc_feed(Core *S, int64_t n, const double *at, const uint8_t *cls,
            const int64_t *d, const int64_t *off, int64_t nw,
            const int64_t *wd, const int64_t *wo, const int64_t *wpd,
            const int64_t *wpo, double *rlat, double *rcomp, int64_t rcap,
            double *wlat, double *wcomp, int64_t wcap, int64_t *counts,
            int64_t ng, const uint8_t *gkind, const int64_t *gsz,
            int64_t nio, const int64_t *gd, const int64_t *go,
            const uint8_t *gw, int64_t gmax, double *glat, double *gcomp,
            uint8_t *gk, int64_t gcap)
{
    Disks *k = &S->k;
    int64_t ai = 0, wi = 0, gi = 0, io = 0, nr = 0, nwr = 0, ngr = 0;
    double now = k->clock;
    int rc = XC_OK;
    if (ng && (rc = next_io_init(S, gmax)) != XC_OK)
        goto out;
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
                uint8_t c = cls[r];
                if (c == CLS_READ) {
                    rc = submit(S, d[r], off[r], READ_FAST, slot, a);
                } else if (c == CLS_RMW) {
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
                } else {
                    if (gi >= ng) {
                        rc = XC_OVERFLOW;
                        goto out;
                    }
                    int64_t m0 = gsz[2 * gi], m1 = gsz[2 * gi + 1];
                    if (m0 < 1 || m0 > S->gmax || m1 < 0 || m1 > S->gmax ||
                        m0 + m1 > nio - io) {
                        rc = XC_OVERFLOW;
                        goto out;
                    }
                    q->kind = gkind[gi++];
                    q->rem = (int32_t)m0;
                    q->next = (int32_t)m1;
                    /* The second phase waits in the slot's side slab. */
                    Io *nx = &S->next_io[slot * S->gmax];
                    for (int64_t j = 0; j < m1; j++) {
                        nx[j].d = gd[io + m0 + j];
                        nx[j].off = go[io + m0 + j];
                        nx[j].action =
                            gw[io + m0 + j] ? GENERIC_WRITE : GENERIC_READ;
                    }
                    for (int64_t j = io; j < io + m0 && rc == XC_OK; j++)
                        rc = submit(S, gd[j], go[j],
                                    gw[j] ? GENERIC_WRITE : GENERIC_READ,
                                    slot, a);
                    io += m0 + m1;
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
            k->reads[dk]++;
            if (nr >= rcap) {
                rc = XC_OVERFLOW;
                goto out;
            }
            rlat[nr] = t - q->at;
            rcomp[nr] = t;
            nr++;
            S->free_slots[S->nfree++] = e.req;
        } else if (e.action == RMW_PHASE1) {
            k->reads[dk]++;
            if (!--q->rem) {
                /* Phase 2: write new data, then new parity. */
                q->rem = 2;
                rc = submit(S, q->d, q->off, RMW_WRITE, e.req, t);
                if (rc == XC_OK)
                    rc = submit(S, q->pd, q->po, RMW_WRITE, e.req, t);
                if (rc != XC_OK)
                    goto out;
            }
        } else if (e.action == RMW_WRITE) {
            k->writes[dk]++;
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
        } else {
            if (e.action == GENERIC_WRITE)
                k->writes[dk]++;
            else
                k->reads[dk]++;
            if (!--q->rem) {
                if (q->next) {
                    /* The second phase starts inside this completion,
                     * before the disk's next queued IO. */
                    const Io *nx = &S->next_io[e.req * S->gmax];
                    q->rem = q->next;
                    q->next = 0;
                    for (int32_t j = 0; j < q->rem && rc == XC_OK; j++)
                        rc = submit(S, nx[j].d, nx[j].off, nx[j].action,
                                    e.req, t);
                    if (rc != XC_OK)
                        goto out;
                } else {
                    if (ngr >= gcap) {
                        rc = XC_OVERFLOW;
                        goto out;
                    }
                    glat[ngr] = t - q->at;
                    gcomp[ngr] = t;
                    gk[ngr] = (uint8_t)q->kind;
                    ngr++;
                    S->free_slots[S->nfree++] = e.req;
                }
            }
        }
        /* Start the disk's next queued IO (Disk._start_next). */
        Fifo *f = &S->q[dk];
        if (f->len) {
            Queued qe = f->buf[f->head];
            f->head = (f->head + 1) % f->cap;
            f->len--;
            double s = serve(k, dk, qe.off);
            k->delay[dk] += t - qe.t;
            Event ne = {t + s, S->seqc++, qe.req, (int32_t)dk, qe.action};
            heap_push(S, ne);
        } else {
            S->busy[dk] = 0;
        }
    }
out:
    k->clock = now;
    counts[0] = nr;
    counts[1] = nwr;
    counts[2] = ngr;
    return rc;
}

/* ------------------------------------------------------------------
 * The eager core
 * ------------------------------------------------------------------ */

typedef struct {
    double tw;   /* phase-2 submission time: the later phase-1 read */
    double g;    /* that read's service start (the heap's seq order) */
    int64_t cnt; /* push count: the final tiebreak */
    double at;   /* arrival time */
    int64_t d, off, pd, po;
} Pend;

typedef struct {
    Disks k;       /* first, for xd_state; k.clock is the last completion */
    double *prevc; /* each disk's previous completion */
    int64_t *mark; /* the phase-2 tie check's disk marks */
    int64_t stamp;
    Pend *pq; /* pending phase 2s, a min-heap on (tw, g, cnt) */
    int64_t plen, pcap, cnt;
} Eager;

void xe_free(Eager *E)
{
    if (!E)
        return;
    disks_free(&E->k);
    free(E->prevc);
    free(E->mark);
    free(E->pq);
    free(E);
}

Eager *xe_new(int64_t v, double seq_s, double avg_s, double clock,
              const int64_t *last, const uint8_t *has_last,
              const double *busyt, const double *delay)
{
    Eager *E = calloc(1, sizeof *E);
    if (!E)
        return NULL;
    size_t n = v > 0 ? (size_t)v : 1;
    E->prevc = malloc(n * sizeof *E->prevc);
    E->mark = calloc(n, sizeof *E->mark);
    if (disks_init(&E->k, v, seq_s, avg_s, clock, last, has_last, busyt,
                   delay) != XC_OK ||
        !E->prevc || !E->mark) {
        xe_free(E);
        return NULL;
    }
    for (int64_t d = 0; d < v; d++)
        E->prevc[d] = -INFINITY;
    return E;
}

static inline int pend_before(const Pend *a, const Pend *b)
{
    return a->tw < b->tw ||
           (a->tw == b->tw &&
            (a->g < b->g || (a->g == b->g && a->cnt < b->cnt)));
}

static int pend_push(Eager *E, const Pend *w)
{
    if (E->plen == E->pcap) {
        int64_t cap = E->pcap ? 2 * E->pcap : 256;
        Pend *b = realloc(E->pq, (size_t)cap * sizeof *b);
        if (!b)
            return XC_NOMEM;
        E->pq = b;
        E->pcap = cap;
    }
    int64_t i = E->plen++;
    while (i) {
        int64_t p = (i - 1) >> 1;
        if (!pend_before(w, &E->pq[p]))
            break;
        E->pq[i] = E->pq[p];
        i = p;
    }
    E->pq[i] = *w;
    return XC_OK;
}

static Pend pend_pop(Eager *E)
{
    Pend top = E->pq[0];
    int64_t n = --E->plen;
    if (!n)
        return top;
    Pend last = E->pq[n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && pend_before(&E->pq[c + 1], &E->pq[c]))
            c++;
        if (!pend_before(&E->pq[c], &last))
            break;
        E->pq[i] = E->pq[c];
        i = c;
    }
    E->pq[i] = last;
    return top;
}

/* One IO submitted at t to disk d's FIFO: it starts at the later of t
 * and the disk's previous completion (the wait counts as queue delay).
 * Returns its completion; *start receives its service start. */
static inline double resolve(Eager *E, int64_t d, int64_t off, double t,
                             double *start)
{
    double p = E->prevc[d];
    if (p > t)
        E->k.delay[d] += p - t;
    else
        p = t;
    double c = p + serve(&E->k, d, off);
    E->prevc[d] = c;
    *start = p;
    return c;
}

/* Consume one window's n arrivals (xc_feed's columns up to counts,
 * without generic plans: isr is the class column, 1 for a read and 0
 * for a read-modify-write), interleaved
 * with the pending phase 2s, which retire up to the window's last
 * arrival; n == 0 ends the stream and retires all of them.  Reads
 * resolve at arrival, writes when their phase 2 retires: latencies and
 * completion times land in rlat/rcomp and wlat/wcomp in that order, and
 * counts receives how many of each.  Returns XE_TIE on an arrival tied
 * with a pending phase 2 on a shared disk, or on two pending phase 2s
 * tied on (time, gating start) on a shared disk — the core is then
 * spent. */
int xe_feed(Eager *E, int64_t n, const double *at, const uint8_t *isr,
            const int64_t *d, const int64_t *off, int64_t nw,
            const int64_t *wd, const int64_t *wo, const int64_t *wpd,
            const int64_t *wpo, double *rlat, double *rcomp, int64_t rcap,
            double *wlat, double *wcomp, int64_t wcap, int64_t *counts)
{
    Disks *k = &E->k;
    int64_t ai = 0, wi = 0, nr = 0, nwr = 0;
    double maxc = k->clock;
    int rc = XC_OK;
    for (;;) {
        double limit = E->plen ? E->pq[0].tw : INFINITY;
        while (ai < n) {
            double t = at[ai];
            if (t >= limit) {
                if (t > limit)
                    break;
                /* An arrival and a pending phase 2 at the same instant:
                 * the heap's order is ambiguous, but only matters when
                 * they share a disk (disjoint submissions commute). */
                int64_t a0, a1;
                if (isr[ai]) {
                    a0 = a1 = d[ai];
                } else {
                    if (wi >= nw) {
                        rc = XC_OVERFLOW;
                        goto out;
                    }
                    a0 = wd[wi];
                    a1 = wpd[wi];
                }
                for (int64_t i = 0; i < E->plen; i++) {
                    const Pend *o = &E->pq[i];
                    if (o->tw == limit && (o->d == a0 || o->d == a1 ||
                                           o->pd == a0 || o->pd == a1)) {
                        rc = XE_TIE;
                        goto out;
                    }
                }
            }
            int64_t r = ai++;
            double g1, g2;
            if (isr[r]) {
                /* Single-IO read: resolves entirely at arrival. */
                double c = resolve(E, d[r], off[r], t, &g1);
                k->reads[d[r]]++;
                if (c > maxc)
                    maxc = c;
                if (nr >= rcap) {
                    rc = XC_OVERFLOW;
                    goto out;
                }
                rcomp[nr] = c;
                rlat[nr] = c - t;
                nr++;
                continue;
            }
            if (wi >= nw) {
                rc = XC_OVERFLOW;
                goto out;
            }
            Pend w = {0.0, 0.0, 0, t, wd[wi], wo[wi], wpd[wi], wpo[wi]};
            wi++;
            /* RMW phase 1: read old data, then old parity. */
            double c1 = resolve(E, w.d, w.off, t, &g1);
            k->reads[w.d]++;
            double c2 = resolve(E, w.pd, w.po, t, &g2);
            k->reads[w.pd]++;
            /* Phase 2 fires in the completion event of the read that
             * finishes last, whose heap sequence number was taken when
             * its service started: that start orders phase 2s tied on
             * time. */
            if (c1 > c2) {
                w.tw = c1;
                w.g = g1;
            } else if (c2 > c1) {
                w.tw = c2;
                w.g = g2;
            } else {
                w.tw = c1;
                w.g = g1 > g2 ? g1 : g2;
            }
            w.cnt = ++E->cnt;
            rc = pend_push(E, &w);
            if (rc != XC_OK)
                goto out;
            if (w.tw < limit)
                limit = w.tw;
        }
        double na;
        if (ai < n)
            /* Retire pending phase 2s up to the next arrival (ties at
             * the arrival re-enter the arrival loop's check). */
            na = at[ai];
        else if (!n)
            na = INFINITY;
        else
            break;
        while (E->plen && E->pq[0].tw < na) {
            Pend w = pend_pop(E);
            if (E->plen && E->pq[0].tw == w.tw) {
                /* Same-instant phase 2s: distinct gating starts order
                 * them exactly; ties on both are fine only while they
                 * touch pairwise disjoint disks. */
                int64_t s = ++E->stamp;
                E->mark[w.d] = E->mark[w.pd] = s;
                for (int64_t i = 0; i < E->plen; i++) {
                    const Pend *o = &E->pq[i];
                    if (o->tw != w.tw || o->g != w.g)
                        continue;
                    if (E->mark[o->d] == s) {
                        rc = XE_TIE;
                        goto out;
                    }
                    E->mark[o->d] = s;
                    if (E->mark[o->pd] == s) {
                        rc = XE_TIE;
                        goto out;
                    }
                    E->mark[o->pd] = s;
                }
            }
            /* Phase 2: write new data, then new parity. */
            double p;
            double c = resolve(E, w.d, w.off, w.tw, &p);
            k->writes[w.d]++;
            double c4 = resolve(E, w.pd, w.po, w.tw, &p);
            k->writes[w.pd]++;
            if (c4 > c)
                c = c4;
            if (c > maxc)
                maxc = c;
            if (nwr >= wcap) {
                rc = XC_OVERFLOW;
                goto out;
            }
            wcomp[nwr] = c;
            wlat[nwr] = c - w.at;
            nwr++;
        }
        if (ai >= n)
            break;
    }
    k->clock = maxc;
out:
    counts[0] = nr;
    counts[1] = nwr;
    return rc;
}
