/* Live-heap attribution, preloaded by ci/heap.sh into a spire-benchmark
 * built with frame pointers. Each block carries a 16-byte header naming the
 * stack that allocated it, and the live bytes of every stack are kept. When
 * the process's live total climbs past the last copy by 1/256 (or 64 KiB),
 * the per-stack figures are copied aside, so the copy left at exit is the
 * heap at its peak to within that margin. At exit writes $PROF_OUT: the
 * peak, then one line per stack live in the copy: bytes, blocks, and the
 * return addresses, leaf first, as offsets into the binary (for addr2line).
 * Stacks are walked on the main thread only; another thread's block is
 * charged to its allocator's caller alone. */
#define _GNU_SOURCE
#include <errno.h>
#include <stdlib.h>
#include <sys/mman.h>

#include "maps.h"

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

enum { DEPTH = 24, SLOTS = 1 << 16, HEADER = 16 };
#define UNTRACKED UINT32_MAX /* allocated before start-up or after exit began */

/* Just below every block handed out; `shift` is how far below the header
 * the libc block starts (non-zero for over-aligned blocks only). */
struct header {
    uint32_t stack, shift;
    uint64_t size;
};

struct stack {
    uint64_t hash;
    uintptr_t pc[DEPTH];
    int64_t live, blocks, peak, peak_blocks;
};

static struct stack *stacks; /* slot 0: whatever a full table turns away */
static uint32_t *used, n_used;
static int64_t live_total, peak_total, copied_total;
static char lock_flag;

static void lock(void) {
    while (__atomic_test_and_set(&lock_flag, __ATOMIC_ACQUIRE))
        ;
}
static void unlock(void) { __atomic_clear(&lock_flag, __ATOMIC_RELEASE); }

/* An allocating stack: return addresses into the binary, leaf first. */
struct trace {
    uintptr_t pc[DEPTH];
};

/* Walks the stack above `fp`, the frame of an allocation entry point (its
 * return address is fp[1]). Each entry point walks its own frame, into a
 * local, so no call of its can be turned into a jump that reuses it. */
static void walk(struct trace *t, uintptr_t *fp) {
    uintptr_t sp = (uintptr_t)t;
    int n = 0;
    memset(t, 0, sizeof *t);
    if (in_text(fp[1]))
        t->pc[n++] = fp[1];
    if (sp >= stack_lo && sp < stack_hi)
        for (uintptr_t *next; n < DEPTH; fp = next) {
            next = (uintptr_t *)fp[0];
            if (next <= fp || (uintptr_t)next + 16 > stack_hi || (uintptr_t)next % 8)
                break;
            if (in_text(next[1]))
                t->pc[n++] = next[1];
        }
}

/* The slot of stack `t`. Called with the lock held. */
static uint32_t slot_of(const struct trace *t) {
    const uintptr_t *pc = t->pc;
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < DEPTH && pc[i]; i++)
        h = (h ^ pc[i]) * 1099511628211ull;
    h |= 1;
    for (uint32_t i = h % (SLOTS - 1) + 1, probes = 0; probes < SLOTS; probes++, i = i % (SLOTS - 1) + 1) {
        struct stack *s = &stacks[i];
        if (s->hash == h && !memcmp(s->pc, pc, sizeof s->pc))
            return i;
        if (!s->hash) {
            if (n_used >= SLOTS / 4 * 3)
                return 0;
            s->hash = h;
            memcpy(s->pc, pc, sizeof s->pc);
            used[n_used++] = i;
            return i;
        }
    }
    return 0;
}

static void charge(uint32_t slot, int64_t bytes, int64_t blocks) {
    stacks[slot].live += bytes;
    stacks[slot].blocks += blocks;
    live_total += bytes;
    if (live_total <= peak_total)
        return;
    peak_total = live_total;
    if (live_total < copied_total + copied_total / 256 + 65536)
        return;
    copied_total = live_total;
    stacks[0].peak = stacks[0].live, stacks[0].peak_blocks = stacks[0].blocks;
    for (uint32_t i = 0; i < n_used; i++) {
        struct stack *s = &stacks[used[i]];
        s->peak = s->live, s->peak_blocks = s->blocks;
    }
}

/* Stamps the header in front of `user` and charges its stack. */
static void *track(void *base, char *user, size_t size, const struct trace *t) {
    if (!base)
        return NULL;
    struct header *h = (struct header *)(user - HEADER);
    h->shift = (uint32_t)((char *)h - (char *)base);
    h->size = size;
    lock();
    h->stack = stacks ? slot_of(t) : UNTRACKED;
    if (h->stack != UNTRACKED)
        charge(h->stack, (int64_t)size, 1);
    unlock();
    return user;
}

static struct header *header_of(void *user) { return (struct header *)((char *)user - HEADER); }

static void *base_of(struct header *h) { return (char *)h - h->shift; }

static void untrack(struct header *h) {
    lock();
    if (stacks && h->stack != UNTRACKED)
        charge(h->stack, -(int64_t)h->size, -1);
    unlock();
}

static void *alloc_plain(size_t size, const struct trace *t) {
    if (size > SIZE_MAX - HEADER)
        return errno = ENOMEM, NULL;
    char *base = __libc_malloc(size + HEADER);
    return track(base, base + HEADER, size, t);
}

static void *alloc_aligned(size_t align, size_t size, const struct trace *t) {
    if (align <= HEADER)
        return alloc_plain(size, t);
    if (align & (align - 1) || size > SIZE_MAX - align)
        return errno = EINVAL, NULL;
    char *base = __libc_memalign(align, size + align);
    return track(base, base + align, size, t);
}

void *malloc(size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    return alloc_plain(size, &t);
}

void *calloc(size_t n, size_t each) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    size_t size;
    if (__builtin_mul_overflow(n, each, &size) || size > SIZE_MAX - HEADER)
        return errno = ENOMEM, NULL;
    char *base = __libc_calloc(1, size + HEADER);
    return track(base, base + HEADER, size, &t);
}

void free(void *user) {
    if (!user)
        return;
    struct header *h = header_of(user);
    untrack(h);
    __libc_free(base_of(h));
}

void *realloc(void *user, size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    if (!user)
        return alloc_plain(size, &t);
    if (!size)
        return free(user), NULL;
    struct header *h = header_of(user);
    if (h->shift || size > SIZE_MAX - HEADER) {
        void *moved = alloc_plain(size, &t);
        if (moved) {
            memcpy(moved, user, h->size < size ? h->size : size);
            free(user);
        }
        return moved;
    }
    struct header old = *h;
    char *base = __libc_realloc(h, size + HEADER);
    if (!base)
        return NULL;
    /* The block moved or grew: the old size leaves its stack, the new size
     * is charged to the stack that grew it. */
    untrack(&old);
    return track(base, base + HEADER, size, &t);
}

int posix_memalign(void **out, size_t align, size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    if (align % sizeof(void *))
        return EINVAL;
    void *p = alloc_aligned(align, size, &t);
    return p ? (*out = p, 0) : ENOMEM;
}

void *aligned_alloc(size_t align, size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    return alloc_aligned(align, size, &t);
}

void *memalign(size_t align, size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    return alloc_aligned(align, size, &t);
}

void *valloc(size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    return alloc_aligned(sysconf(_SC_PAGESIZE), size, &t);
}

void *pvalloc(size_t size) {
    struct trace t;
    walk(&t, __builtin_frame_address(0));
    size_t page = sysconf(_SC_PAGESIZE);
    return alloc_aligned(page, (size + page - 1) / page * page, &t);
}

size_t malloc_usable_size(void *user) { return user ? header_of(user)->size : 0; }

__attribute__((constructor)) static void start(void) {
    if (!getenv("PROF_OUT") || !read_maps())
        return;
    /* Untouched pages of the tables are never resident. */
    void *table = mmap(NULL, SLOTS * sizeof *stacks, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    void *order = mmap(NULL, SLOTS * sizeof *used, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (table == MAP_FAILED || order == MAP_FAILED)
        return;
    lock();
    used = order;
    stacks = table;
    unlock();
}

__attribute__((destructor)) static void stop(void) {
    lock();
    struct stack *all = stacks;
    stacks = NULL; /* what exit frees from here on is not the run's */
    unlock();
    FILE *out = all ? fopen(getenv("PROF_OUT"), "w") : NULL;
    if (!out)
        return;
    fprintf(out, "# peak %ld copied %ld stacks %u unattributed %ld\n", (long)peak_total,
            (long)copied_total, n_used, (long)all[0].peak);
    for (uint32_t i = 0; i < n_used; i++) {
        struct stack *s = &all[used[i]];
        if (s->peak <= 0)
            continue;
        fprintf(out, "%ld %ld", (long)s->peak, (long)s->peak_blocks);
        for (int d = 0; d < DEPTH && s->pc[d]; d++)
            fprintf(out, " %lx", s->pc[d] - bias);
        fputc('\n', out);
    }
    fclose(out);
}
