/* Where the binary and the main thread's stack lie, for the shims that
 * ci/profile.sh and ci/heap.sh preload into a spire-benchmark built with
 * frame pointers. Each shim includes this once and calls read_maps() from
 * its constructor. */
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

static uintptr_t bias, text_lo, text_hi, stack_lo, stack_hi;

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }

/* Reads /proc/self/maps: the load bias (where the ELF header, link-time
 * address 0, is mapped), the binary's executable mapping and the main
 * thread's stack. Returns whether both the text and the stack were found. */
static int read_maps(void) {
    char exe[4096], line[4400], perms[8], path[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = len < 0 ? NULL : fopen("/proc/self/maps", "r");
    if (!maps)
        return 0;
    exe[len] = 0;
    for (uintptr_t lo, hi, offset; fgets(line, sizeof line, maps);) {
        path[0] = 0;
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &lo, &hi, perms, &offset, path) < 4)
            continue;
        if (!strcmp(path, exe) && offset == 0)
            bias = lo;
        if (!strcmp(path, exe) && perms[2] == 'x')
            text_lo = lo, text_hi = hi;
        if (!strcmp(path, "[stack]"))
            stack_hi = hi;
    }
    fclose(maps);
    stack_lo = stack_hi - (64u << 20); /* the kernel maps nothing else this close below */
    return text_hi && stack_hi;
}
