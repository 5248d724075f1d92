/* A SIGPROF sampler for scripts/sample_profile.sh, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time the kernel interrupts the program
 * and the handler stores the interrupted program counter. At exit the PCs
 * are written to $SAMPLE_OUT, one a line. A PC inside the executable (the
 * file of the first mapping in /proc/self/maps) is written in hex minus
 * that mapping's load base, which is the address addr2line expects for a
 * position-independent executable. Any other PC is written as the name of
 * the mapping it lies in, bracketed: the file's base name for a shared
 * object ("[libc.so.6]"), the kernel's own label for a named region
 * ("[vdso]"), "[anon]" for an anonymous one and "[?]" for none. x86-64
 * Linux only (REG_RIP). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig;
    (void)info;
    if (taken < MAX_SAMPLES)
        pcs[taken++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    /* Children (rustc -V, git) must not load the sampler too. */
    unsetenv("LD_PRELOAD");
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

#define MAX_MAPS 4096
static struct {
    unsigned long lo, hi;
    char name[64];
} maps[MAX_MAPS];

/* Reads /proc/self/maps into `maps`; returns the count. */
static int read_maps(char *exe, size_t exe_len) {
    FILE *f = fopen("/proc/self/maps", "r");
    if (!f)
        return 0;
    char line[4096];
    int n = 0;
    while (n < MAX_MAPS && fgets(line, sizeof line, f)) {
        int path = 0;
        if (sscanf(line, "%lx-%lx %*s %*s %*s %*s %n", &maps[n].lo, &maps[n].hi, &path) < 2)
            continue;
        char *name = line + path;
        name[strcspn(name, "\n")] = 0;
        if (n == 0)
            snprintf(exe, exe_len, "%s", name);
        const char *base = strrchr(name, '/');
        if (strcmp(name, exe) == 0)
            maps[n].name[0] = 0; /* the executable: symbolized by address */
        else if (base)
            snprintf(maps[n].name, sizeof maps[n].name, "[%s]", base + 1);
        else
            snprintf(maps[n].name, sizeof maps[n].name, "%s", *name ? name : "[anon]");
        n++;
    }
    fclose(f);
    return n;
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLE_OUT");
    static char exe[4096];
    int n = read_maps(exe, sizeof exe);
    FILE *out = n > 0 && path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    for (unsigned long i = 0; i < taken; i++) {
        int m = 0;
        while (m < n && !(maps[m].lo <= pcs[i] && pcs[i] < maps[m].hi))
            m++;
        if (m == n)
            fprintf(out, "[?]\n");
        else if (maps[m].name[0])
            fprintf(out, "%s\n", maps[m].name);
        else
            fprintf(out, "%lx\n", pcs[i] - maps[0].lo);
    }
    fclose(out);
}
