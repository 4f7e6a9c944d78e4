/* repro's compiled kernels: Algorithms 1, 2 and 3 over columns, the array
 * extent map, and workload synthesis.
 *
 * fp_defrag() replays a window of ops on the single-frontier log under
 * opportunistic defragmentation; fp_serve() serves the fragments of
 * fragmented reads in the paper's order (cache lookup, buffer cover, disk
 * access, window insert, cache admit).  The per-call Python methods are
 * their oracle; repro/core/fragment_policy.py drives them.  The em_*()
 * routines are the array extent map's two levels
 * (repro/extentmap/array_map.py); ExtentMap is their oracle.  wl_generate()
 * is the synthetic workload generator's op loop
 * (repro/workloads/generator.py); the pinned synthesis digests are its
 * oracle.
 *
 * State lives in int64 arrays the caller owns, each a header (the field
 * order of fragment_policy.py's _LRU_FIELDS / _RING_FIELDS /
 * _DEFRAG_FIELDS) and then: for the cache, a Table of the resident blocks
 * linked LRU -> MRU; for the buffer, `size` Windows (its FIFO); for
 * defrag, a Table of the access counts keyed (lba, length), linked in
 * insertion order.  A Table is a hash of table_size entries (slot + 1, 0
 * when empty; linear probing, backward-shift delete), then `capacity`
 * Nodes.  A policy not configured passes NULL.  The extent map is the
 * exception: em_new() allocates its levels, em_free() releases them.
 *
 * Compiled with -fwrapv: int64 overflow wraps as numpy's does; and with
 * -ffp-contract=off: no multiply-add fuses, so every double is the one
 * CPython computes.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { DISK = 0, CACHE_HIT = 1, BUFFER_HIT = 2 };
enum { KIND_READ = 0, KIND_WRITE = 1, KIND_DEFRAG = 2 };

typedef struct { int64_t capacity, shift, table_size, count, head, tail; } Table;
typedef struct { int64_t key, length, value, prev, next; } Node;
typedef struct { Table *t; int64_t *entry; Node *node; } Map;
typedef struct { Table t; int64_t block_sectors, hits, misses, evictions; } Lru;
typedef struct { Table t; int64_t used, min_fragments, min_accesses; } Defrag;
/* A window's progress, in the last words of its work array. */
typedef struct { int64_t frontier, accesses, appends, rewrites, rewritten, rows; } Progress;
typedef struct {
    int64_t capacity, ahead, behind, size, first, count, used, window_reads;
} Ring;
typedef struct { int64_t start, end; } Window;

static Map map_at(int64_t *state, int64_t header_words) {
    Map m = {(Table *)state, state + header_words, 0};
    m.node = (Node *)(m.entry + m.t->table_size);
    return m;
}

static inline uint64_t home(const Map *m, int64_t key, int64_t length) {
    return ((uint64_t)key * 0x9E3779B97F4A7C15u ^ (uint64_t)length * 0xC2B2AE3D27D4EB4Fu)
           >> m->t->shift;
}

/* The table entry holding (key, length), or the empty entry it would go in. */
static inline int64_t *probe(const Map *m, int64_t key, int64_t length) {
    uint64_t mask = (uint64_t)m->t->table_size - 1, i = home(m, key, length);
    const Node *node = m->node;
    while (m->entry[i] &&
           (node[m->entry[i] - 1].key != key || node[m->entry[i] - 1].length != length))
        i = (i + 1) & mask;
    return m->entry + i;
}

static inline void erase(const Map *m, int64_t *entry) {
    uint64_t mask = (uint64_t)m->t->table_size - 1, hole = entry - m->entry, i = hole;
    int64_t *table = m->entry;
    table[hole] = 0;
    for (;;) {
        i = (i + 1) & mask;
        if (!table[i])
            return;
        /* Shift back every entry whose probe path crosses the hole. */
        const Node *moved = m->node + table[i] - 1;
        if (((i - home(m, moved->key, moved->length)) & mask) >= ((i - hole) & mask)) {
            table[hole] = table[i];
            table[i] = 0;
            hole = i;
        }
    }
}

static inline void unlink_node(const Map *m, int64_t slot) {
    Node *node = m->node;
    int64_t prev = node[slot].prev, next = node[slot].next;
    if (prev >= 0) node[prev].next = next; else m->t->head = next;
    if (next >= 0) node[next].prev = prev; else m->t->tail = prev;
}

static inline void push_back(const Map *m, int64_t slot) {
    Node *node = m->node;
    node[slot].prev = m->t->tail;
    node[slot].next = -1;
    if (m->t->tail >= 0) node[m->t->tail].next = slot; else m->t->head = slot;
    m->t->tail = slot;
}

/* CheckCache: on a hit every covering block becomes most recently used. */
static int lookup(const Map *m, int64_t first, int64_t last) {
    for (int64_t block = first; block <= last; block++)
        if (!*probe(m, block, 0))
            return 0;
    for (int64_t block = first; block <= last; block++) {
        int64_t slot = *probe(m, block, 0) - 1;
        unlink_node(m, slot);
        push_back(m, slot);
    }
    return 1;
}

/* WriteCache: SelectiveFragmentCache.admit inserts (or refreshes) every
 * block, then evicts from the LRU end down to capacity.  Detaching the range's
 * resident blocks first lets each new block evict as it goes, in the same
 * order, so the table never holds more than `capacity` blocks. */
static void admit(Lru *lru, const Map *m, int64_t first, int64_t last) {
    Table *t = m->t;
    for (int64_t block = first; block <= last; block++) {
        int64_t slot = *probe(m, block, 0) - 1;
        if (slot >= 0)
            unlink_node(m, slot);
    }
    for (int64_t block = first; block <= last; block++) {
        int64_t *entry = probe(m, block, 0), slot = *entry - 1;
        if (slot < 0 && t->count < t->capacity) {
            slot = t->count++;
        } else if (slot < 0) {
            lru->evictions++;
            if (t->head < 0)  /* the block itself is the oldest */
                continue;
            slot = t->head;
            unlink_node(m, slot);
            erase(m, probe(m, m->node[slot].key, 0));
            entry = probe(m, block, 0);
        }
        m->node[slot] = (Node){block, 0, 0, -1, -1};
        *entry = slot + 1;
        push_back(m, slot);
    }
}

static int covers(const Ring *ring, const Window *window, int64_t start, int64_t end) {
    for (int64_t k = 0; k < ring->count; k++) {
        const Window *w = window + (ring->first + k) % ring->size;
        if (w->start <= start && end <= w->end)
            return 1;
    }
    return 0;
}

/* LookAheadBehindPrefetcher.note_fragment_read: append, then drop the
 * oldest windows until the buffer fits. */
static void add_window(Ring *ring, Window *window, int64_t start, int64_t end) {
    window[(ring->first + ring->count++) % ring->size] = (Window){start, end};
    for (ring->used += end - start; ring->used > ring->capacity; ring->count--) {
        ring->used -= window[ring->first].end - window[ring->first].start;
        ring->first = (ring->first + 1) % ring->size;
    }
}

/* Builds a Table's list and hash from the `count` Nodes in slots
 * 0..count-1, oldest first (a state_dict()'s rows). */
void fp_load(int64_t *state, int64_t header_words) {
    Map m = map_at(state, header_words);
    m.t->head = m.t->tail = -1;
    for (int64_t slot = 0; slot < m.t->count; slot++) {
        *probe(&m, m.node[slot].key, m.node[slot].length) = slot + 1;
        push_back(&m, slot);
    }
}

/* Writes a Table's (key, length, value) rows to `out`, oldest first. */
void fp_order(int64_t *state, int64_t header_words, int64_t *out) {
    Map m = map_at(state, header_words);
    for (int64_t slot = m.t->head; slot >= 0; slot = m.node[slot].next, out += 3)
        memcpy(out, m.node + slot, 3 * sizeof(int64_t));
}

/* Serves fragments 0..n-1; returns n, or the index of the first invalid
 * fragment (length <= 0, pba < 0 with a cache, or an empty clipped
 * window), none of which it applied. */
int64_t fp_serve(const int64_t *pba, const int64_t *length, int64_t n,
                 uint8_t *code, int64_t *cache, int64_t *buffer) {
    Lru *lru = (Lru *)cache;
    Map m = cache ? map_at(cache, sizeof(Lru) / sizeof(int64_t)) : (Map){0, 0, 0};
    Ring *ring = (Ring *)buffer;
    Window *window = buffer ? (Window *)(buffer + sizeof(Ring) / sizeof(int64_t)) : 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t start = pba[i], end = pba[i] + length[i], first = 0, last = 0;
        int64_t fetch_start = 0, fetch_end = 0;
        if (length[i] <= 0 || (lru && start < 0))
            return i;
        if (lru) {
            first = start / lru->block_sectors;
            last = (end - 1) / lru->block_sectors;
        }
        if (ring) {
            /* note_fragment_read's clip at pba 0 and truncation to the buffer. */
            fetch_end = end + ring->ahead;
            fetch_start = start - ring->behind;
            if (fetch_start < fetch_end - ring->capacity)
                fetch_start = fetch_end - ring->capacity;
            if (fetch_start < 0)
                fetch_start = 0;
            if (fetch_end <= fetch_start)
                return i;
        }
        if (lru) {
            if (lookup(&m, first, last)) {
                lru->hits++;
                code[i] = CACHE_HIT;
                continue;
            }
            lru->misses++;
        }
        if (ring) {
            if (covers(ring, window, start, end)) {
                code[i] = BUFFER_HIT;
                continue;
            }
            add_window(ring, window, fetch_start, fetch_end);
            ring->window_reads++;
        }
        if (lru)
            admit(lru, &m, first, last);
        code[i] = DISK;
    }
    return n;
}

/* Sorted, disjoint rows [lba, end) -> pba: a defrag window's appends so
 * far (the later winning where two overlap), and the extent map's levels;
 * a piece as lookup_pieces has it. */
typedef struct { int64_t lba, end, pba; } Row;
typedef struct { int64_t pba, length, hole; } Piece;

/* The first of the rows that ends past `lba`. */
static int64_t first_after(const Row *row, int64_t rows, int64_t lba) {
    int64_t lo = 0, hi = rows, mid;
    while (lo < hi)
        if (row[mid = (lo + hi) / 2].end <= lba) lo = mid + 1; else hi = mid;
    return lo;
}

/* ExtentMap.map_range on the rows. */
static void map_row(Row *row, int64_t *rows, Row new) {
    int64_t lo = first_after(row, *rows, new.lba), stop = lo, kept;
    while (stop < *rows && row[stop].lba < new.end)
        stop++;
    Row keep[3], *k = keep;  /* what replaces rows lo..stop-1 */
    if (lo < stop && row[lo].lba < new.lba)
        *k++ = (Row){row[lo].lba, new.lba, row[lo].pba};
    *k++ = new;
    if (lo < stop && row[stop - 1].end > new.end)
        *k++ = (Row){new.end, row[stop - 1].end, row[stop - 1].pba + new.end - row[stop - 1].lba};
    kept = k - keep;
    memmove(row + lo + kept, row + stop, (*rows - stop) * sizeof(Row));
    memcpy(row + lo, keep, kept * sizeof(Row));
    *rows += kept - (stop - lo);
}

/* should_defragment, then note_defragmented on a yes (fp_defrag has
 * checked that a new range finds a free node). */
static int should_defragment(Defrag *d, const Map *m, int64_t lba, int64_t length,
                             int64_t fragments) {
    if (fragments < d->min_fragments)
        return 0;
    if (d->min_accesses == 1 && !d->t.count)
        return 1;
    int64_t *entry = probe(m, lba, length), slot = *entry - 1;
    int64_t count = (slot >= 0 ? m->node[slot].value : 0) + 1;
    if (count < d->min_accesses) {
        if (slot < 0) {
            m->node[slot = d->used++] = (Node){lba, length, 0, -1, -1};
            *entry = slot + 1;
            d->t.count++;
            push_back(m, slot);
        }
        m->node[slot].value = count;
        return 0;
    }
    if (slot >= 0) {
        unlink_node(m, slot);
        erase(m, entry);
        d->t.count--;
    }
    return 1;
}

/* Replays ops i..n-1 of a window from `work`: their lba[n], length[n] and
 * offsets[n + 1], then p Pieces (op i's are offsets[i]..offsets[i+1]-1:
 * a read's as the window starts, none for a write).  A write appends at
 * the frontier; a read resolves with the window's earlier appends laid
 * over its pieces, merging neighbours by ExtentMap._push_piece's rule
 * (same kind, physically contiguous), and appends when Algorithm 1 picks
 * it.  Then writes, from work + 3n + 1 + 3p: each op's fragment count (n
 * slots); the accesses' pba, length and kind (p + 5n slots each,
 * `accesses` used); the appends' lba, pba and length (n slots each,
 * `appends` used): the map rows to apply in order; scratch; the Progress
 * (28n + 6p + 7 words in all).  Returns the ops replayed: fewer than n
 * when the next might overflow the scratch (the caller starts a new
 * window) or the count table (it grows the table and resumes at i). */
int64_t fp_defrag(int64_t *state, int64_t *work, int64_t n, int64_t p, int64_t i) {
    Defrag *d = (Defrag *)state;
    Progress *w = (Progress *)(work + 28 * n + 6 * p + 1);
    Map m = map_at(state, sizeof(Defrag) / sizeof(int64_t));
    const int64_t *lba = work, *length = lba + n, *offsets = length + n;
    const Piece *pieces = (const Piece *)(offsets + n + 1);
    int64_t capacity = p + 5 * n, *fragments = (int64_t *)(pieces + p);
    int64_t *out_pba = fragments + n, *out_length = out_pba + capacity;
    int64_t *kind = out_length + capacity, *appended = kind + capacity;
    Row *row = (Row *)(appended + 3 * n);
    int64_t at = w->accesses, rows = w->rows;
    for (; i < n; i++) {
        int64_t start = lba[i], end = start + length[i], piece = offsets[i], first = at;
        int64_t code = KIND_WRITE;
        if (at + (offsets[i + 1] - piece) + 2 * rows + 1 > capacity ||
            (d->min_accesses > 1 && d->used == d->t.capacity))
            break;
        for (int64_t cursor = start, o = first_after(row, rows, start), base = start,
                     last = -1, to, pba, hole;
             piece < offsets[i + 1] && cursor < end; cursor = to) {
            if (o < rows && row[o].lba <= cursor) {
                to = row[o].end < end ? row[o].end : end;
                pba = row[o].pba + (cursor - row[o].lba);
                hole = 0;
                o++;
            } else {
                while (base + pieces[piece].length <= cursor)
                    base += pieces[piece++].length;
                to = base + pieces[piece].length < end ? base + pieces[piece].length : end;
                if (o < rows && row[o].lba < to)
                    to = row[o].lba;
                /* A hole's pba is its lba, so the offset holds for both kinds. */
                pba = pieces[piece].pba + (cursor - base);
                hole = pieces[piece].hole;
            }
            if (hole == last && out_pba[at - 1] + out_length[at - 1] == pba) {
                out_length[at - 1] += to - cursor;
            } else {
                out_pba[at] = pba;
                out_length[at] = to - cursor;
                kind[at++] = KIND_READ;
                last = hole;
            }
        }
        fragments[i] = at > first ? at - first : 1;
        if (at > first) {  /* a read, rewritten when Algorithm 1 says so */
            if (at - first < 2 || !should_defragment(d, &m, start, length[i], at - first))
                continue;
            code = KIND_DEFRAG;
            w->rewrites++;
            w->rewritten += length[i];
        }
        int64_t r = w->appends++;  /* a write, or the rewrite */
        appended[r] = start;
        appended[n + r] = out_pba[at] = w->frontier;
        appended[2 * n + r] = out_length[at] = length[i];
        kind[at++] = code;
        map_row(row, &rows, (Row){start, end, w->frontier});
        w->frontier += length[i];
    }
    w->accesses = at;
    w->rows = rows;
    return i;
}


/* ---- The array extent map ------------------------------------------------
 *
 * repro/extentmap/array_map.py's two levels of canonical Rows (LBA-sorted,
 * disjoint, merge-maximal): the base, and an overlay of recent writes that
 * the base takes in one merge once it holds `threshold` rows.  ExtentMap is
 * the oracle: the same rows and the same tilings after any writes.
 */
typedef struct { int64_t rows, capacity; Row *row; } Level;
/* The counters first: array_map.py reads the leading words. */
typedef struct {
    int64_t threshold, flushes, reallocs, merged, moved, runs;
    Level base, overlay;
} Amap;

/* Appends a row, joined to the last one where both are contiguous
 * logically and physically (ExtentMap._insert_merged's rule). */
static void push_row(Row *out, int64_t *n, Row r) {
    Row *last = out + *n - 1;
    if (*n && last->end == r.lba && last->pba + (r.lba - last->lba) == r.pba)
        last->end = r.end;
    else
        out[(*n)++] = r;
}

/* Canonical rows of `up` laid over `low` (each sorted and disjoint; `up`
 * wins where they overlap) into `out`, nl + 2 nu rows at most.  Returns
 * their count. */
static int64_t merge_over(const Row *low, int64_t nl, const Row *up, int64_t nu, Row *out) {
    int64_t n = 0, i = 0;
    Row cur = nl ? low[0] : (Row){0, 0, 0};  /* what is left of low[i] */
    for (int64_t j = 0; j < nu; j++) {
        Row u = up[j];
        for (; i < nl && cur.end <= u.lba; cur = ++i < nl ? low[i] : cur)
            push_row(out, &n, cur);
        if (i < nl && cur.lba < u.lba)
            push_row(out, &n, (Row){cur.lba, u.lba, cur.pba});
        push_row(out, &n, u);
        while (i < nl && cur.end <= u.end)
            cur = ++i < nl ? low[i] : cur;
        if (i < nl && cur.lba < u.end)
            cur = (Row){u.end, cur.end, cur.pba + (u.end - cur.lba)};
    }
    for (; i < nl; cur = ++i < nl ? low[i] : cur)
        push_row(out, &n, cur);
    return n;
}

/* What k >= 1 writes applied in order leave mapped, as canonical rows in
 * `out`: the later half laid over the earlier, each netted the same way
 * (O(k log k)).  `out` and `scratch` hold 2k rows each. */
static int64_t net(const int64_t *lba, const int64_t *pba, const int64_t *length, int64_t k,
                   Row *out, Row *scratch) {
    if (k == 1) {
        out[0] = (Row){lba[0], lba[0] + length[0], pba[0]};
        return 1;
    }
    int64_t half = k / 2, low = net(lba, pba, length, half, scratch, out);
    int64_t up = net(lba + half, pba + half, length + half, k - half, scratch + 2 * half, out);
    return merge_over(scratch, low, scratch + 2 * half, up, out);
}

/* Lays canonical rows over a level.  Only its rows under their hull, those
 * overlapping or abutting it (so that joins at its edges stay exact), are
 * merged (none: the rows go in as they are), and the rows behind them move
 * once; the level grows by doubling.  Returns 0, or -1 with the level
 * unchanged when memory ran out. */
static int splice(Amap *m, Level *level, const Row *up, int64_t nu) {
    int64_t i0 = first_after(level->row, level->rows, up[0].lba - 1), i1 = level->rows, mid;
    for (int64_t lo = i0; lo < i1;)
        if (level->row[mid = (lo + i1) / 2].lba <= up[nu - 1].end) lo = mid + 1; else i1 = mid;
    Row *out = 0;
    int64_t n = nu;
    if (i1 > i0) {
        if (!(out = malloc((i1 - i0 + 2 * nu) * sizeof(Row))))
            return -1;
        n = merge_over(level->row + i0, i1 - i0, up, nu, out);
    }
    int64_t rows = level->rows - (i1 - i0) + n, tail = level->rows - i1, base = level == &m->base;
    if (rows > level->capacity) {
        int64_t capacity = 1024;
        while (capacity < rows)
            capacity *= 2;
        Row *grown = realloc(level->row, capacity * sizeof(Row));
        if (!grown) {
            free(out);
            return -1;
        }
        level->row = grown;
        level->capacity = capacity;
        m->reallocs += base;
    }
    if (n != i1 - i0 && tail) {
        memmove(level->row + i0 + n, level->row + i1, tail * sizeof(Row));
        m->moved += base * tail;
    }
    memcpy(level->row + i0, out ? out : up, n * sizeof(Row));
    free(out);
    level->rows = rows;
    m->merged += base * (i1 - i0);
    return 0;
}

void *em_new(int64_t threshold) {
    Amap *m = calloc(1, sizeof(Amap));
    if (m)
        m->threshold = threshold;
    return m;
}

void em_free(Amap *m) {
    free(m->base.row);
    free(m->overlay.row);
    free(m);
}

/* Merges the overlay into the base.  Returns 0, or -1 when memory ran out. */
int64_t em_flush(Amap *m) {
    if (!m->overlay.rows)
        return 0;
    if (splice(m, &m->base, m->overlay.row, m->overlay.rows))
        return -1;
    m->overlay.rows = 0;
    m->flushes++;
    return 0;
}

/* ExtentMap.map_range on rows 0..k-1 of `work` (their lba[k], pba[k] and
 * length[k]) in order, up to the first with length <= 0 or an address < 0.
 * A run is netted first, then laid over the overlay; a run that would fill
 * it goes to the base with the overlay in one merge.  Returns the rows
 * applied, or -1 when memory ran out. */
int64_t em_write(Amap *m, const int64_t *work, int64_t k) {
    const int64_t *lba = work, *pba = work + k, *length = work + 2 * k;
    int64_t valid = 0, n = 0, sorted = 1, failed;
    while (valid < k && length[valid] > 0 && lba[valid] >= 0 && pba[valid] >= 0)
        valid++;
    if (!valid)
        return 0;
    for (int64_t i = 1; i < valid && sorted; i++)
        sorted = lba[i] >= lba[i - 1] + length[i - 1];
    Row *run = malloc((sorted ? 1 : 4) * valid * sizeof(Row));
    if (!run)
        return -1;
    if (sorted)  /* LBA-sorted and disjoint: the net is the run, joined */
        for (int64_t i = 0; i < valid; i++)
            push_row(run, &n, (Row){lba[i], lba[i] + length[i], pba[i]});
    else
        n = net(lba, pba, length, valid, run, run + 2 * valid);
    if (m->overlay.rows + n < m->threshold) {
        failed = splice(m, &m->overlay, run, n) ||
                 (m->overlay.rows >= m->threshold && em_flush(m));
    } else {
        Row *both = run;
        if (m->overlay.rows && (both = malloc((m->overlay.rows + 2 * n) * sizeof(Row))))
            n = merge_over(m->overlay.row, m->overlay.rows, run, n, both);
        failed = !both || splice(m, &m->base, both, n);
        if (both != run)
            free(both);
        if (!failed) {
            m->overlay.rows = 0;
            m->flushes++;
            m->runs++;
        }
    }
    free(run);
    return failed ? -1 : valid;
}

/* lookup_pieces of the nq queries in `work` (their lba[nq] and length[nq]):
 * the overlay laid over the base, a hole at its own address, neighbours
 * joined by ExtentMap._push_piece's rule (same kind, physically
 * contiguous).  Writes offsets[nq + 1] next, then the pieces' pba, length
 * and hole columns, `capacity` words each: query q's pieces are rows
 * offsets[q]..offsets[q + 1] - 1.  Returns the queries resolved: fewer
 * than nq at a length <= 0, or when the pieces do not fit. */
int64_t em_resolve(const Amap *m, int64_t *work, int64_t nq, int64_t capacity) {
    const int64_t *lba = work, *length = work + nq;
    int64_t *offsets = work + 2 * nq, *pba = offsets + nq + 1;
    int64_t *size = pba + capacity, *hole = size + capacity, at = 0, q;
    const Row *base = m->base.row, *over = m->overlay.row;
    int64_t nb = m->base.rows, no = m->overlay.rows;
    offsets[0] = 0;
    for (q = 0; q < nq && length[q] > 0; offsets[++q] = at) {
        int64_t cursor = lba[q], end = lba[q] + length[q];
        int64_t o = first_after(over, no, cursor), b = first_after(base, nb, cursor);
        while (cursor < end) {
            int64_t to = end, p, h = 0;
            if (o < no && over[o].lba <= cursor) {
                to = over[o].end < end ? over[o].end : end;
                p = over[o].pba + (cursor - over[o].lba);
                o++;
            } else {
                if (o < no && over[o].lba < end)
                    to = over[o].lba;
                while (b < nb && base[b].end <= cursor)
                    b++;
                if (b < nb && base[b].lba <= cursor) {
                    to = base[b].end < to ? base[b].end : to;
                    p = base[b].pba + (cursor - base[b].lba);
                } else {
                    to = b < nb && base[b].lba < to ? base[b].lba : to;
                    p = cursor;
                    h = 1;
                }
            }
            if (at > offsets[q] && hole[at - 1] == h && pba[at - 1] + size[at - 1] == p) {
                size[at - 1] += to - cursor;
            } else if (at == capacity) {
                return q;
            } else {
                pba[at] = p;
                size[at] = to - cursor;
                hole[at++] = h;
            }
            cursor = to;
        }
    }
    return q;
}

/* The base's n rows (after em_flush, the map) as lba[n], pba[n] and
 * length[n] in `work`. */
void em_export(const Amap *m, int64_t *work) {
    int64_t n = m->base.rows;
    for (int64_t i = 0; i < n; i++) {
        work[i] = m->base.row[i].lba;
        work[n + i] = m->base.row[i].pba;
        work[2 * n + i] = m->base.row[i].end - m->base.row[i].lba;
    }
}


/* ---- Workload synthesis --------------------------------------------------
 *
 * The draws are CPython 3.11's random.Random ones (_randommodule.c and
 * random.py), so a trace is bit-identical to what Python's emitters made:
 * random() joins two words into 53 bits, randrange(0, n) is getrandbits of
 * n's bit length with rejection, expovariate(l) is -log(1 - random()) / l,
 * uniform(a, b) is a + (b - a) * random(), and choices(cum_weights=)
 * bisects random() * total.
 */

enum { BLOCK = 8, MISORDER_GROUP = 4, REPLAY_WINDOW = 32, STREAMS = 5 };
enum { HOT, MISORDERED, SEQUENTIAL, RANDOM };  /* a phase's write groups */

/* MT19937 as random.Random.getstate() holds it: 624 words, then the index. */
typedef struct { uint32_t mt[624], index; } Mt;
typedef struct { int64_t lba, length; } Span;

static uint32_t mt_word(Mt *r) {
    if (r->index >= 624) {
        for (int k = 0; k < 624; k++) {
            uint32_t y = (r->mt[k] & 0x80000000u) | (r->mt[(k + 1) % 624] & 0x7fffffffu);
            r->mt[k] = r->mt[(k + 397) % 624] ^ (y >> 1) ^ (y & 1 ? 0x9908b0dfu : 0);
        }
        r->index = 0;
    }
    uint32_t y = r->mt[r->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

static double mt_random(Mt *r) {
    uint32_t a = mt_word(r) >> 5, b = mt_word(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(0, n) for n >= 1: words least significant first. */
static int64_t mt_below(Mt *r, int64_t n) {
    int k = 64 - __builtin_clzll((uint64_t)n);
    uint64_t x;
    do {
        x = mt_word(r);
        if (k <= 32)
            x >>= 32 - k;
        else
            x |= (uint64_t)(mt_word(r) >> (64 - k)) << 32;
    } while (x >= (uint64_t)n);
    return (int64_t)x;
}

static int64_t align(int64_t lba) { return lba / BLOCK * BLOCK; }

static int64_t below(Mt *r, int64_t n) { return mt_below(r, n > 1 ? n : 1); }

/* A request size: exponential around the mean or, with probability bulk_p,
 * uniform in [min(8 mean, cap), cap] KiB; clamped to [4 KiB, cap], rounded
 * up to sectors as kib_to_sectors does, then down to whole 4 KiB blocks. */
static int64_t sample_size(Mt *r, double mean, double cap, double bulk_p) {
    double kib;
    if (bulk_p != 0.0 && mt_random(r) < bulk_p) {
        double low = fmin(8.0 * mean, cap);
        kib = low + (cap - low) * mt_random(r);
    } else {
        kib = -log(1.0 - mt_random(r)) / (1.0 / mean);
    }
    int64_t sectors = ((int64_t)ceil(fmin(fmax(kib, 4.0), cap) * 1024.0) + 511) / 512;
    return sectors < BLOCK ? BLOCK : align(sectors);
}

/* Ascending requests of one size over [start, end), wrapping at the end. */
typedef struct { int64_t start, end, size, cursor; } Sweep;

static Span sweep(Sweep *s) {
    if (s->cursor + s->size > s->end)
        s->cursor = s->start;
    s->cursor += s->size;
    return (Span){s->cursor - s->size, s->size};
}

/* Uniform random requests over [start, start + length). */
typedef struct { Mt *r; int64_t start, length; double mean, cap, bulk_p; } Uniform;

static Span uniform(Uniform *u) {
    int64_t size = sample_size(u->r, u->mean, u->cap, u->bulk_p);
    size = size < u->length ? size : u->length;
    return (Span){u->start + align(below(u->r, u->length - size)), size};
}

typedef struct { int64_t start, length; } Region;

/* A spec's shape, sizes in sectors; generator.py builds it field for field. */
typedef struct {
    int64_t phases, interleave, working_set, misorder_in_hot, write_size, read_size,
        cluster, cluster_span, hot_targets_max;
    Region hot, misorder;
} Shape;

/* The patterns' state and the log of what has been written. */
typedef struct {
    const Shape *shape;
    Mt *hot_rng, *zipf_rng, *span_rng;
    double mean_write, mean_read, alpha;
    Uniform write_random, read_random;
    Sweep write_seq, scan, misorder;
    int64_t anchor, in_cluster;  /* the hot overwrites' cluster */
    Span chunk[MISORDER_GROUP];  /* a mis-ordered chunk, reversed */
    int64_t chunk_left;
    Span recent[REPLAY_WINDOW];  /* the last writes, a ring */
    int64_t written;
    Span replay[REPLAY_WINDOW];  /* the replay reads still due */
    int64_t replay_at, replay_n;
    Span *targets;  /* the hot extents re-reads pick from, first come */
    double *raw, *cum;  /* 1 / rank**alpha; the Zipf table over cum_n targets */
    int64_t target_n, raw_n, cum_n;
} Gen;

/* Small overwrites at aligned offsets within `cluster_span` of an anchor
 * that moves every `cluster` writes. */
static Span hot_write(Gen *g) {
    const Shape *s = g->shape;
    if (g->in_cluster == 0) {
        g->in_cluster = s->cluster;
        g->anchor = s->hot.start + align(below(g->hot_rng, s->hot.length - s->cluster_span));
    }
    g->in_cluster--;
    int64_t size = sample_size(g->hot_rng, g->mean_write, 1024.0, 0.0);
    size = size < s->cluster_span ? size : s->cluster_span;
    return (Span){g->anchor + align(below(g->hot_rng, s->cluster_span - size)), size};
}

/* A sweep released MISORDER_GROUP requests at a time, each chunk reversed. */
static Span misordered_write(Gen *g) {
    if (g->chunk_left == 0) {
        for (int i = MISORDER_GROUP; i--;)
            g->chunk[i] = sweep(&g->misorder);
        g->chunk_left = MISORDER_GROUP;
    }
    return g->chunk[MISORDER_GROUP - g->chunk_left--];
}

static Span write_op(Gen *g, int group) {
    const Shape *s = g->shape;
    Span span;
    int in_hot;
    switch (group) {
    case HOT: span = hot_write(g); in_hot = 1; break;
    case MISORDERED: span = misordered_write(g); in_hot = (int)s->misorder_in_hot; break;
    case SEQUENTIAL: span = sweep(&g->write_seq); in_hot = 0; break;
    default:
        span = uniform(&g->write_random);
        in_hot = s->hot.start <= span.lba && span.lba < s->hot.start + s->hot.length;
    }
    g->recent[g->written++ % REPLAY_WINDOW] = span;
    if (in_hot && g->target_n < s->hot_targets_max)
        g->targets[g->target_n++] = span;
    return span;
}

/* The last REPLAY_WINDOW writes, read back in write order.  Phase 0 writes
 * before any read, so there always is one. */
static Span replay_read(Gen *g) {
    if (g->replay_at == g->replay_n) {
        g->replay_n = g->written < REPLAY_WINDOW ? g->written : REPLAY_WINDOW;
        for (int64_t j = 0; j < g->replay_n; j++)
            g->replay[j] = g->recent[(g->written - g->replay_n + j) % REPLAY_WINDOW];
        g->replay_at = 0;
    }
    return g->replay[g->replay_at++];
}

/* A window around a Zipf-popular hot extent (the Python sum and
 * accumulate: left to right), jittered by an aligned pad; a random read
 * while no hot extent exists. */
static Span hot_read(Gen *g) {
    const Shape *s = g->shape;
    int64_t n = g->target_n;
    if (n == 0)
        return uniform(&g->read_random);
    if (g->cum_n != n) {
        for (; g->raw_n < n; g->raw_n++)
            g->raw[g->raw_n] = 1.0 / pow((double)(g->raw_n + 1), g->alpha);
        double total = 0.0;
        for (int64_t i = 0; i < n; i++)
            total += g->raw[i];
        for (int64_t i = 0; i < n; i++)
            g->cum[i] = (i ? g->cum[i - 1] : 0.0) + g->raw[i] / total;
        g->cum_n = n;
    }
    double x = mt_random(g->zipf_rng) * g->cum[n - 1];
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < g->cum[mid]) hi = mid; else lo = mid + 1;
    }
    Span target = g->targets[lo];
    int64_t size = sample_size(g->span_rng, g->mean_read, 1024.0, 0.0);
    size = size > target.length + 2 * BLOCK ? size : target.length + 2 * BLOCK;
    int64_t pad = align(mt_below(g->span_rng, size - target.length + 1));
    int64_t lba = target.lba - pad > s->hot.start ? target.lba - pad : s->hot.start;
    int64_t end = lba + size < s->hot.start + s->hot.length ? lba + size
                                                              : s->hot.start + s->hot.length;
    return (Span){lba, end - lba > BLOCK ? end - lba : BLOCK};
}

/* The four columns, filled one op a millisecond apart. */
typedef struct { double *timestamp; uint8_t *is_read; int64_t *lba, *length, op; double clock; } Out;

static void emit(Out *out, int read, Span span) {
    out->timestamp[out->op] = out->clock;
    out->is_read[out->op] = (uint8_t)read;
    out->lba[out->op] = span.lba;
    out->length[out->op++] = span.length;
    out->clock += 0.001;
}

/* A phase's next write group, or -1 when all are done: the groups in turn,
 * or riffled when `interleave` (group k's i-th write at (i + 0.5) /
 * count[k], ties to the lower group). */
static int next_group(const int64_t *count, const int64_t *done, int64_t interleave) {
    int next = -1;
    double at = 0.0;
    for (int k = 0; k < 4; k++) {
        if (done[k] == count[k])
            continue;
        if (!interleave)
            return k;
        double position = (done[k] + 0.5) / count[k];
        if (next < 0 || position < at)
            next = k, at = position;
    }
    return next;
}

/* Emits a trace's ops into its columns: per phase, the write groups
 * (counts[8 * phase + HOT..RANDOM], as next_group orders them), then the
 * replay, scan, hot and random reads (counts[8 * phase + 4..7]), and a
 * minute's gap.  `states` holds the five streams (write.random, write.hot,
 * read.random, read.hot, read.hot.span), which it advances.  Returns the
 * ops written, or -1 if memory ran out. */
int64_t wl_generate(uint32_t *states, const Shape *s, const int64_t *counts,
                    double mean_write, double mean_read, double alpha,
                    double *timestamp, uint8_t *is_read, int64_t *lba, int64_t *length) {
    Mt *rng = (Mt *)states;
    int64_t max = s->hot_targets_max;
    Gen g = {
        .shape = s, .hot_rng = rng + 1, .zipf_rng = rng + 3, .span_rng = rng + 4,
        .mean_write = mean_write, .mean_read = mean_read, .alpha = alpha,
        .write_random = {rng, 0, s->working_set, mean_write, 1024.0, 0.0},
        .read_random = {rng + 2, 0, s->working_set, mean_read, 4096.0, 0.01},
        .write_seq = {0, s->working_set, s->write_size, 0},
        .scan = {s->hot.start, s->hot.start + s->hot.length, s->read_size, s->hot.start},
        .misorder = {s->misorder.start, s->misorder.start + s->misorder.length, s->write_size,
                     s->misorder.start},
        .targets = malloc(max * (sizeof(Span) + 2 * sizeof(double))),
    };
    if (!g.targets)
        return -1;
    g.raw = (double *)(g.targets + max);
    g.cum = g.raw + max;
    Out out = {timestamp, is_read, lba, length, 0, 0.0};
    for (int64_t phase = 0; phase < s->phases; phase++, out.clock += 60.0) {
        const int64_t *count = counts + 8 * phase;
        int64_t done[4] = {0};
        for (int k; (k = next_group(count, done, s->interleave)) >= 0; done[k]++)
            emit(&out, 0, write_op(&g, k));
        for (int64_t i = 0; i < count[4]; i++)
            emit(&out, 1, replay_read(&g));
        for (int64_t i = 0; i < count[5]; i++)
            emit(&out, 1, sweep(&g.scan));
        for (int64_t i = 0; i < count[6]; i++)
            emit(&out, 1, hot_read(&g));
        for (int64_t i = 0; i < count[7]; i++)
            emit(&out, 1, uniform(&g.read_random));
    }
    free(g.targets);
    return out.op;
}
