/* SIGPROF stack sampler, preloaded by ci/profile.sh into a spire-benchmark
 * built with frame pointers. Samples the main thread's stack 250 times per
 * CPU-second; at exit writes one line per sample to $PROF_OUT, leaf first:
 * offsets into the binary (for addr2line), or @symbol for a leaf outside. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { DEPTH = 64, MAX_SAMPLES = 1 << 16, HZ = 250 };
static uintptr_t bias, text_lo, text_hi, stack_lo, stack_hi, (*samples)[DEPTH];
static volatile size_t taken, elsewhere;

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }
static int on_stack(uintptr_t a, uintptr_t above) { return a > above && a + 16 <= stack_hi && a % 8 == 0; }

static void on_prof(int sig, siginfo_t *info, void *raw) {
    (void)sig, (void)info;
    greg_t *regs = ((ucontext_t *)raw)->uc_mcontext.gregs;
    uintptr_t pc = regs[REG_RIP], sp = regs[REG_RSP], fp = regs[REG_RBP];
    if (sp < stack_lo || sp >= stack_hi || taken == MAX_SAMPLES)
        return (void)elsewhere++; /* another thread: its stack's bounds are unknown */
    uintptr_t *out = samples[taken++], *w = (uintptr_t *)sp, *top = (uintptr_t *)stack_hi - 1;
    int n = 0;
    out[n++] = pc;
    if (!in_text(pc)) {
        /* glibc keeps no frames: in memcpy rbp is still the caller's, so a
         * walk from it would start at the caller's caller; in malloc rbp is
         * scratch. The call pushed its return address, the first word above
         * sp that points into the binary. Without a usable rbp the caller's
         * frame is the rbp glibc pushed just below that, else the first
         * (stack address further up, address in the binary) pair above. */
        while (w < top && !in_text(*w))
            w++;
        if (in_text(*w))
            out[n++] = *w;
        if (!on_stack(fp, sp) && on_stack(w[-1], (uintptr_t)w))
            fp = w[-1];
        for (w++; !on_stack(fp, sp) && w < top; w++)
            if (on_stack(w[0], (uintptr_t)w) && in_text(w[1]))
                fp = (uintptr_t)w;
    }
    while (n < DEPTH && on_stack(fp, sp - 1) && in_text(((uintptr_t *)fp)[1])) {
        out[n++] = ((uintptr_t *)fp)[1];
        if (((uintptr_t *)fp)[0] <= fp)
            break;
        fp = ((uintptr_t *)fp)[0];
    }
}

__attribute__((constructor)) static void start(void) {
    char exe[4096], line[4400], perms[8], path[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (len < 0 || !maps || !getenv("PROF_OUT"))
        return;
    exe[len] = 0;
    for (uintptr_t lo, hi, offset; fgets(line, sizeof line, maps);) {
        path[0] = 0;
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &lo, &hi, perms, &offset, path) < 4)
            continue;
        if (!strcmp(path, exe) && offset == 0)
            bias = lo; /* the ELF header: link-time address 0 */
        if (!strcmp(path, exe) && perms[2] == 'x')
            text_lo = lo, text_hi = hi;
        if (!strcmp(path, "[stack]"))
            stack_hi = hi;
    }
    fclose(maps);
    stack_lo = stack_hi - (64u << 20); /* the kernel maps nothing else this close below */
    samples = calloc(MAX_SAMPLES, sizeof *samples); /* zeroed: a 0 ends a short sample */
    struct sigaction act = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    if (samples && text_hi && stack_hi && !sigaction(SIGPROF, &act, NULL))
        setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    setitimer(ITIMER_PROF, &(struct itimerval){0}, NULL);
    FILE *out = samples && taken ? fopen(getenv("PROF_OUT"), "w") : NULL;
    if (!out)
        return;
    fprintf(out, "# hz %d samples %zu elsewhere %zu\n", HZ, (size_t)taken, (size_t)elsewhere);
    for (size_t s = 0; s < taken; s++, fputc('\n', out))
        for (int i = 0; i < DEPTH && samples[s][i]; i++) {
            Dl_info sym;
            uintptr_t a = samples[s][i];
            if (in_text(a))
                fprintf(out, "%lx ", a - bias);
            else
                fprintf(out, "@%s ", dladdr((void *)a, &sym) && sym.dli_sname ? sym.dli_sname : "?");
        }
    fclose(out);
}
