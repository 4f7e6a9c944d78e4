/* The fragment-policy kernel: Algorithms 2 and 3 over columns.
 *
 * fp_serve() serves the fragments (pba[i], length[i]) of fragmented reads
 * in the paper's order -- selective-cache lookup, then prefetch-buffer
 * cover, then the disk access followed by the window insert and the cache
 * admit -- and writes one DISK / CACHE_HIT / BUFFER_HIT code per fragment.
 * The per-call Python methods (lookup / covers / note_fragment_read /
 * admit) are its oracle; repro/core/fragment_policy.py builds, loads and
 * drives it.
 *
 * All state lives in two int64 arrays the caller owns:
 *   cache:  an Lru header, then a hash table of table_size entries (slot + 1,
 *           0 when empty; linear probing, backward-shift delete), then
 *           `capacity` Nodes: the resident blocks, doubly linked LRU -> MRU.
 *   buffer: a Ring header, then `size` Windows: the prefetch buffer's FIFO.
 * Either may be NULL when that policy is not configured.  The headers'
 * field order is fragment_policy.py's _LRU_FIELDS / _RING_FIELDS.
 *
 * Compiled with -fwrapv: int64 overflow wraps as numpy's does.
 */
#include <stdint.h>

enum { DISK = 0, CACHE_HIT = 1, BUFFER_HIT = 2 };

typedef struct {
    int64_t capacity, block_sectors, shift, table_size, count, head, tail;
    int64_t hits, misses, evictions;
} Lru;
typedef struct { int64_t key, prev, next; } Node;
typedef struct {
    int64_t capacity, ahead, behind, size, first, count, used, window_reads;
} Ring;
typedef struct { int64_t start, end; } Window;

static uint64_t home(const Lru *lru, int64_t block) {
    return ((uint64_t)block * 0x9E3779B97F4A7C15u) >> lru->shift;
}

/* The table entry holding `block`, or the empty entry it would go in. */
static int64_t *probe(const Lru *lru, int64_t *table, const Node *node, int64_t block) {
    uint64_t mask = (uint64_t)lru->table_size - 1, i = home(lru, block);
    while (table[i] && node[table[i] - 1].key != block)
        i = (i + 1) & mask;
    return table + i;
}

static void erase(const Lru *lru, int64_t *table, const Node *node, int64_t *entry) {
    uint64_t mask = (uint64_t)lru->table_size - 1, hole = entry - table, i = hole;
    table[hole] = 0;
    for (;;) {
        i = (i + 1) & mask;
        if (!table[i])
            return;
        /* Shift back every entry whose probe path crosses the hole. */
        if (((i - home(lru, node[table[i] - 1].key)) & mask) >= ((i - hole) & mask)) {
            table[hole] = table[i];
            table[i] = 0;
            hole = i;
        }
    }
}

static void unlink_node(Lru *lru, Node *node, int64_t slot) {
    int64_t prev = node[slot].prev, next = node[slot].next;
    if (prev >= 0) node[prev].next = next; else lru->head = next;
    if (next >= 0) node[next].prev = prev; else lru->tail = prev;
}

static void push_mru(Lru *lru, Node *node, int64_t slot) {
    node[slot].prev = lru->tail;
    node[slot].next = -1;
    if (lru->tail >= 0) node[lru->tail].next = slot; else lru->head = slot;
    lru->tail = slot;
}

/* CheckCache: on a hit every covering block becomes most recently used. */
static int lookup(Lru *lru, int64_t *table, Node *node, int64_t first, int64_t last) {
    for (int64_t block = first; block <= last; block++)
        if (!*probe(lru, table, node, block))
            return 0;
    for (int64_t block = first; block <= last; block++) {
        int64_t slot = *probe(lru, table, node, block) - 1;
        unlink_node(lru, node, slot);
        push_mru(lru, node, slot);
    }
    return 1;
}

/* WriteCache: LRUCache.insert_range inserts (or refreshes) every block,
 * then evicts from the LRU end down to capacity.  Detaching the range's
 * resident blocks first lets each new block evict as it goes, in the same
 * order, so the table never holds more than `capacity` blocks. */
static void admit(Lru *lru, int64_t *table, Node *node, int64_t first, int64_t last) {
    for (int64_t block = first; block <= last; block++) {
        int64_t slot = *probe(lru, table, node, block) - 1;
        if (slot >= 0)
            unlink_node(lru, node, slot);
    }
    for (int64_t block = first; block <= last; block++) {
        int64_t *entry = probe(lru, table, node, block), slot = *entry - 1;
        if (slot < 0 && lru->count < lru->capacity) {
            slot = lru->count++;
        } else if (slot < 0) {
            lru->evictions++;
            if (lru->head < 0)  /* the block itself is the oldest */
                continue;
            slot = lru->head;
            unlink_node(lru, node, slot);
            erase(lru, table, node, probe(lru, table, node, node[slot].key));
            entry = probe(lru, table, node, block);
        }
        node[slot].key = block;
        *entry = slot + 1;
        push_mru(lru, node, slot);
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

/* PrefetchBuffer.add_window: append, then drop the oldest windows until
 * the buffer fits. */
static void add_window(Ring *ring, Window *window, int64_t start, int64_t end) {
    window[(ring->first + ring->count++) % ring->size] = (Window){start, end};
    for (ring->used += end - start; ring->used > ring->capacity; ring->count--) {
        ring->used -= window[ring->first].end - window[ring->first].start;
        ring->first = (ring->first + 1) % ring->size;
    }
}

/* Builds the LRU list and the table from the `count` keys in slots
 * 0..count-1, least recently used first (a state_dict()'s blocks). */
void fp_load(int64_t *cache) {
    Lru *lru = (Lru *)cache;
    int64_t *table = cache + sizeof(Lru) / sizeof(int64_t);
    Node *node = (Node *)(table + lru->table_size);
    lru->head = lru->tail = -1;
    for (int64_t slot = 0; slot < lru->count; slot++) {
        *probe(lru, table, node, node[slot].key) = slot + 1;
        push_mru(lru, node, slot);
    }
}

/* Writes the resident blocks to `out`, least recently used first. */
void fp_order(int64_t *cache, int64_t *out) {
    Lru *lru = (Lru *)cache;
    Node *node = (Node *)(cache + sizeof(Lru) / sizeof(int64_t) + lru->table_size);
    for (int64_t slot = lru->head; slot >= 0; slot = node[slot].next)
        *out++ = node[slot].key;
}

/* Serves fragments 0..n-1; returns n, or the index of the first invalid
 * fragment (length <= 0, pba < 0 with a cache, or an empty clipped
 * window), none of which it applied. */
int64_t fp_serve(const int64_t *pba, const int64_t *length, int64_t n,
                 uint8_t *code, int64_t *cache, int64_t *buffer) {
    Lru *lru = (Lru *)cache;
    int64_t *table = cache ? cache + sizeof(Lru) / sizeof(int64_t) : 0;
    Node *node = cache ? (Node *)(table + lru->table_size) : 0;
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
            /* add_window's clip at pba 0 and truncation to the buffer. */
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
            if (lookup(lru, table, node, first, last)) {
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
            admit(lru, table, node, first, last);
        code[i] = DISK;
    }
    return n;
}
